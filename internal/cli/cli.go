// Package cli is the command-line layer shared by the run binaries
// fleet-ab, wsmalloc-sim, experiments and fleet-daemon. Each shared run
// flag is declared here once and bound straight onto the option struct
// that consumes it (fleet.ABOptions, workload.Options, core.Config,
// daemon.Config). The rules that span flags run in one place when the
// flags are parsed: design resolution, checkpoint and kill, retune, and
// the churn and sample ranges. The package also writes a finished run's
// exports and serves them over HTTP.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"strconv"
	"time"

	"wsmalloc/internal/core"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/policy"
	"wsmalloc/internal/profiling"
	"wsmalloc/internal/telemetry"
)

// Exit codes of the run binaries.
const (
	ExitFailure = 1 // the run failed
	ExitUsage   = 2 // bad flags or arguments
	ExitHalted  = 3 // a scheduled kill checkpointed the run; re-run with -resume
)

// Usage reports a bad command line on w and returns ExitUsage.
func Usage(w io.Writer, format string, args ...any) int {
	fmt.Fprintf(w, format+"\n", args...)
	return ExitUsage
}

// Exit returns 0 for a nil err; otherwise it reports err on w and
// returns ExitFailure.
func Exit(w io.Writer, err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(w, err)
	return ExitFailure
}

// Flags is one binary's flag set. Its methods register the shared run
// flags, each bound onto the field it sets; the binary declares its own
// flags on the embedded FlagSet.
type Flags struct {
	*flag.FlagSet
	// MetricsOut is the -metrics-out base path; ServeAddr is the -serve
	// address.
	MetricsOut, ServeAddr  string
	seed                   *uint64
	durationNs             *int64
	cpuProfile, memProfile string
	checks                 []func() error
}

// New returns an empty flag set that reports on stderr.
func New(name string, stderr io.Writer) *Flags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &Flags{FlagSet: fs}
}

// Parse parses args and checks the rules of the bound flags in the
// order they were registered. When the command line stops the run it
// reports why and returns ok=false with the exit code: 0 for -help,
// ExitUsage for a bad command line.
func (f *Flags) Parse(args []string) (code int, ok bool) {
	if err := f.FlagSet.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return ExitUsage, false // the flag package reported it
	}
	for _, check := range f.checks {
		if err := check(); err != nil {
			return Usage(f.Output(), "%v", err), false
		}
	}
	return 0, true
}

func (f *Flags) check(fn func() error) { f.checks = append(f.checks, fn) }

// inRange checks that the float flag name lies in the range ok accepts.
func (f *Flags) inRange(name string, p *float64, want string, ok func(float64) bool) {
	f.check(func() error {
		if !ok(*p) {
			return fmt.Errorf("-%s %g: must be %s", name, *p, want)
		}
		return nil
	})
}

// Seed binds -seed.
func (f *Flags) Seed(p *uint64) {
	f.seed = p
	f.Uint64Var(p, "seed", 1, "deterministic seed")
}

// Workers binds -j.
func (f *Flags) Workers(p *int) {
	f.IntVar(p, "j", 0, "concurrent simulation workers (0 = all cores, 1 = sequential); output is bit-identical at any -j")
}

// Duration binds -duration-ms onto a nanosecond run length.
func (f *Flags) Duration(ns *int64, ms int64) {
	f.durationNs = ns
	Millis(f.FlagSet, ns, "duration-ms", ms, "virtual run length per machine in `ms`")
}

// Sample binds -sample, the enrolled fraction of the fleet, in (0,1].
func (f *Flags) Sample(p *float64, value float64) {
	f.Float64Var(p, "sample", value, "fraction of machines enrolled, in (0,1] (the paper enrols 1%)")
	f.inRange("sample", p, "in (0,1]", func(v float64) bool { return v > 0 && v <= 1 })
}

// Prob binds a probability flag, in [0,1].
func (f *Flags) Prob(p *float64, name string, value float64, usage string) {
	f.Float64Var(p, name, value, usage)
	f.inRange(name, p, "in [0,1]", func(v float64) bool { return v >= 0 && v <= 1 })
}

// Churn binds -churn, the probability that a machine run is killed once
// mid-run and restarted cold.
func (f *Flags) Churn(p *float64) {
	f.Prob(p, "churn", 0, "probability a machine run is killed once mid-run and restarted cold (machine churn)")
}

// RestartOnOOM binds -restart-on-oom.
func (f *Flags) RestartOnOOM(p *bool) {
	f.BoolVar(p, "restart-on-oom", false, "OOM-kill and cold-restart a machine whose allocation failed instead of dropping the op")
}

// CheckpointDir binds -checkpoint-dir and -resume, which needs it.
func (f *Flags) CheckpointDir(dir *string, resume *bool) {
	f.StringVar(dir, "checkpoint-dir", "", "checkpoint directory (enables crash-tolerant, resumable runs)")
	f.BoolVar(resume, "resume", false, "resume from the checkpoint in -checkpoint-dir")
	f.check(func() error {
		if *resume && *dir == "" {
			return errors.New("-resume needs -checkpoint-dir")
		}
		return nil
	})
}

// Checkpoint binds the crash-tolerance flags onto c: -checkpoint-dir,
// -resume, -checkpoint-every-ms (0 = a quarter of -duration-ms) and
// -kill-frac, 0 or in (0,1). Bind Duration too.
func (f *Flags) Checkpoint(c *fleet.CheckpointOptions) {
	f.CheckpointDir(&c.Dir, &c.Resume)
	Millis(f.FlagSet, &c.EveryNs, "checkpoint-every-ms", 0,
		"virtual checkpoint cadence in `ms` (0 = a quarter of -duration-ms; needs -checkpoint-dir)")
	f.Float64Var(&c.KillAtFrac, "kill-frac", 0,
		"kill the run at this fraction of virtual time, in (0,1), after checkpointing (exit code 3; needs -checkpoint-dir)")
	f.inRange("kill-frac", &c.KillAtFrac, "0 or in (0,1)", func(v float64) bool { return v == 0 || v > 0 && v < 1 })
	f.check(func() error {
		switch {
		case c.Dir == "" && c.KillAtFrac != 0:
			return errors.New("-kill-frac needs -checkpoint-dir")
		case c.Dir == "" && c.EveryNs != 0:
			return errors.New("-checkpoint-every-ms needs -checkpoint-dir")
		case c.Dir != "" && c.EveryNs == 0:
			c.EveryNs = *f.durationNs / 4
		}
		return nil
	})
}

// Retune binds -retune-at-ms and -retune-design, which go together;
// Parse puts the design in canonical form.
func (f *Flags) Retune(atNs *int64, design *string) {
	Millis(f.FlagSet, atNs, "retune-at-ms", 0,
		"virtual time in `ms` at which the run live-swaps to -retune-design (0 disables; a fleet A/B retunes only its experiment arm)")
	f.StringVar(design, "retune-design", "",
		"design point swapped in live at -retune-at-ms, e.g. \"optimized\" or \"percpu=hetero,tc=nuca,cfl=prio8,filler=capacity\"")
	f.check(func() error {
		if (*design != "") != (*atNs > 0) {
			return errors.New("-retune-design and -retune-at-ms must be used together")
		}
		if *design == "" {
			return nil
		}
		dp, err := policy.Parse(*design)
		if err != nil {
			return fmt.Errorf("-retune-design: %v", err)
		}
		*design = dp.String()
		return nil
	})
}

// Design is a resolved -design flag and the named-design flag it
// overrides.
type Design struct {
	Point    policy.DesignPoint // the design the run uses
	Named    string             // the named flag's value
	Override bool               // -design was given and replaced Named
}

// Design binds -design and the named-design flag it overrides (-feature
// or -config). After Parse, cfg runs -design when given, else the named
// value: one of presets or a feature by its core.Feature name.
func (f *Flags) Design(cfg *core.Config, namedFlag, namedValue, namedUsage string, presets map[string]policy.DesignPoint) *Design {
	d := &Design{}
	var design string
	f.StringVar(&d.Named, namedFlag, namedValue, namedUsage)
	f.StringVar(&design, "design", "", "design point overriding -"+namedFlag+
		": \"baseline\", \"optimized\", or tier=policy pairs, e.g. percpu=hetero,tc=nuca (see wsmalloc-sim -list-policies)")
	f.check(func() (err error) {
		if d.Override = design != ""; d.Override {
			d.Point, err = SetDesign(cfg, design)
			return err
		}
		var ok bool
		d.Point, ok = presets[d.Named]
		for ft := core.FeatureHeterogeneousPerCPU; !ok && ft <= core.FeatureLifetimeAwareFiller; ft++ {
			if ft.String() == d.Named {
				d.Point, err = core.DesignForFeature(ft)
				ok = err == nil
			}
		}
		if !ok {
			return fmt.Errorf("unknown %s %q", namedFlag, d.Named)
		}
		*cfg, err = cfg.WithDesign(d.Point)
		return err
	})
	return d
}

// SetDesign parses a -design value and makes cfg run it, keeping cfg's
// other fields.
func SetDesign(cfg *core.Config, s string) (policy.DesignPoint, error) {
	dp, err := policy.Parse(s)
	if err == nil {
		*cfg, err = cfg.WithDesign(dp)
	}
	if err != nil {
		return dp, fmt.Errorf("-design: %v", err)
	}
	return dp, nil
}

// Exports binds -telemetry, -heapprof and -metrics-out onto the run's
// telemetry and heap-profile switches. -metrics-out and -serve imply
// -telemetry; the heap profiler is seeded by -seed, so bind Seed too.
func (f *Flags) Exports(tel *telemetry.Config, hp *heapprof.Config) {
	f.BoolVar(&tel.Enabled, "telemetry", false, "instrument the run and dump its metrics registry mallocz-style")
	f.BoolVar(&hp.Enabled, "heapprof", false, "attach the sampled heap profiler and dump its heapz/allocz/peakheapz views")
	f.StringVar(&f.MetricsOut, "metrics-out", "",
		"write telemetry to BASE.prom, BASE.json and BASE.mallocz and heap profiles to BASE.heapz and BASE.heapz.json (implies -telemetry)")
	f.check(func() error {
		tel.Enabled = tel.Enabled || f.MetricsOut != "" || f.ServeAddr != ""
		hp.Seed = *f.seed
		return nil
	})
}

// HeapProfInterval binds -heapprof-interval onto hp.
func (f *Flags) HeapProfInterval(hp *heapprof.Config) {
	f.Int64Var(&hp.SampleIntervalBytes, "heapprof-interval", 0, "mean sampled-allocation interval in bytes (0 = default 512 KiB)")
}

// Serve binds -serve.
func (f *Flags) Serve() {
	f.StringVar(&f.ServeAddr, "serve", "", "after the run, serve its pages over HTTP on this address (implies -telemetry; blocks)")
}

// Profiling binds -cpuprofile and -memprofile.
func (f *Flags) Profiling() {
	f.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
	f.StringVar(&f.memProfile, "memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
}

// StartProfiling tunes the GC for a simulation run and starts the Go
// profilers the flags ask for; call stop on the normal exit path.
func (f *Flags) StartProfiling() (stop func(), err error) {
	profiling.TuneGC()
	return profiling.Start(f.cpuProfile, f.memProfile)
}

// Exports is what a finished run exports.
type Exports struct {
	Snapshots []telemetry.Snapshot
	Series    []telemetry.Snapshot // time series, written into BASE.json
	Trace     telemetry.TraceDump  // event trace, written into BASE.json
	Profiles  []heapprof.Profile
	Tight     bool // no blank line before each stdout dump
}

// WriteExports writes x. With -metrics-out BASE it writes the telemetry
// to BASE.prom, BASE.json and BASE.mallocz and the heap profiles to
// BASE.heapz and BASE.heapz.json, naming each file on stdout; without
// it, it dumps the mallocz and heapz views to stdout.
func (f *Flags) WriteExports(stdout io.Writer, x Exports) error {
	sep := "\n"
	if x.Tight {
		sep = ""
	}
	if len(x.Snapshots) > 0 && f.MetricsOut != "" {
		paths, err := telemetry.WriteFiles(f.MetricsOut, x.Snapshots, x.Series, x.Trace)
		if err != nil {
			return fmt.Errorf("write telemetry: %w", err)
		}
		for _, p := range paths {
			fmt.Fprintf(stdout, "wrote %s\n", p)
		}
	} else if len(x.Snapshots) > 0 {
		fmt.Fprint(stdout, sep)
		if err := telemetry.WriteMallocz(stdout, x.Snapshots...); err != nil {
			return fmt.Errorf("mallocz: %w", err)
		}
	}
	switch {
	case len(x.Profiles) == 0:
		return nil
	case f.MetricsOut == "":
		fmt.Fprint(stdout, sep)
		if err := heapprof.WriteText(stdout, x.Profiles...); err != nil {
			return fmt.Errorf("heapz: %w", err)
		}
		return nil
	}
	if err := WriteFile(stdout, f.MetricsOut+".heapz", func(w io.Writer) error { return heapprof.WriteText(w, x.Profiles...) }); err != nil {
		return err
	}
	return WriteFile(stdout, f.MetricsOut+".heapz.json", func(w io.Writer) error { return heapprof.WriteJSON(w, x.Profiles...) })
}

// WriteFile renders into a new file at path and names it on stdout.
func WriteFile(stdout io.Writer, path string, render func(io.Writer) error) error {
	fl, err := os.Create(path)
	if err == nil {
		err = render(fl)
		if cerr := fl.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// ServeRun serves a finished run on -serve until the server fails:
// /metricsz over x.Snapshots, /heapz over x.Profiles, /statusz with
// status plus service, uptime_sec and heap_profiles, and /healthz. ep
// may carry more pages (/tracez, /pageheapz).
func (f *Flags) ServeRun(stdout io.Writer, service string, x Exports, status map[string]any, ep telemetry.Endpoints) error {
	start := time.Now()
	ep.Snapshots = func() []telemetry.Snapshot { return x.Snapshots }
	ep.Status = func() any {
		st := map[string]any{"service": service, "uptime_sec": time.Since(start).Seconds(), "heap_profiles": len(x.Profiles)}
		maps.Copy(st, status)
		return st
	}
	ep.Health = func() error { return nil }
	if len(x.Profiles) > 0 {
		ep.Heapz = func(w io.Writer, format string) error {
			if format == "json" {
				return heapprof.WriteJSON(w, x.Profiles...)
			}
			return heapprof.WriteText(w, x.Profiles...)
		}
	}
	pages := "/metricsz"
	if ep.Trace != nil {
		pages += ", /tracez"
	}
	pages += ", /heapz"
	if ep.PageHeapz != nil {
		pages += ", /pageheapz"
	}
	fmt.Fprintf(stdout, "serving %s, /statusz and /healthz on %s\n", pages, f.ServeAddr)
	if err := telemetry.ServeEndpoints(f.ServeAddr, ep); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// unit is an integer flag read and printed in a coarse unit (ms, MiB)
// but stored in a fine one (ns, bytes), so that a -*-ms flag binds
// straight onto a nanosecond field.
type unit struct {
	p    *int64
	size int64
}

func (u unit) String() string {
	if u.p == nil {
		return "0"
	}
	return strconv.FormatInt(*u.p/u.size, 10)
}

func (u unit) Set(s string) error {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return errors.New("parse error")
	}
	*u.p = v * u.size
	return nil
}

func (u unit) Get() any { return *u.p / u.size }

// Millis binds an integer millisecond flag onto a nanosecond field.
func Millis(fs *flag.FlagSet, ns *int64, name string, ms int64, usage string) {
	*ns = ms * 1e6
	fs.Var(unit{ns, 1e6}, name, usage)
}

// MiB binds an integer MiB flag onto a byte field.
func MiB(fs *flag.FlagSet, bytes *int64, name string, mib int64, usage string) {
	*bytes = mib << 20
	fs.Var(unit{bytes, 1 << 20}, name, usage)
}
