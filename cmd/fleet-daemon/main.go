// Command fleet-daemon runs the long-lived fleet observability control
// plane: a checkpointed fleet of simulated machines advances virtual
// time in ticks indefinitely under diurnal traffic and machine churn,
// while the daemon streams every machine's telemetry into mergeable
// quantile sketches and a bounded per-tick series ring, watches its own
// exports for regressions, and serves the live pages over HTTP.
//
// Usage:
//
//	fleet-daemon [-listen :8080] [-machines 64] [-sample 0.25] [-seed 1]
//	             [-design optimized] [-tick-ms 2] [-diurnal-ms 16] [-j N]
//	             [-churn 0.002] [-restart-on-oom] [-ring 256]
//	             [-ticks 0] [-tick-wall-ms 0]
//	             [-wd-window 16] [-wd-rate-threshold 1.0] [-wd-min-rate 1]
//	             [-rollout-stage-ticks 8] [-rollout-settle-ticks 2]
//	             [-rollout-threshold 0.5]
//	             [-alert-log alerts.jsonl] [-webhook URL]
//	             [-checkpoint-dir DIR] [-checkpoint-every-ticks 64] [-resume]
//	             [-gwp-dir DIR] [-gwp-every-ticks 16] [-gwp-sample 0.01]
//	             [-gwp-min 1]
//
// Endpoints: /metricsz (Prometheus; ?format=json includes the series
// ring), /tracez, /heapz, /pageheapz, /healthz, /statusz, /alertz, and
// the POST-only admin API /admin/{pause,resume,checkpoint,inject,quit,
// rollout} (/admin/inject?ticks=N&frac=F cold-restarts a machine
// fraction for N ticks — the watchdog demo's fault burst;
// /admin/rollout?design=DESIGN stages a live design-point rollout
// through 1% → 10% → 100% of the fleet with automatic rollback, the
// paper's 1%-experiment methodology as a control-plane operation).
//
// -ticks bounds the run (0 = run until /admin/quit or SIGINT/SIGTERM);
// -tick-wall-ms paces ticks in wall time. On SIGINT/SIGTERM the daemon
// checkpoints (when -checkpoint-dir is set) and exits cleanly; -resume
// continues a checkpointed run bit-identically.
//
// -gwp-dir enables continuous fleet profiling: every -gwp-every-ticks
// ticks a rotating -gwp-sample fraction of the enrolled machines is
// profiled into one window of the on-disk profile warehouse, queried
// offline with gwpquery. The warehouse honours the same kill/resume
// bit-identity contract as the checkpoints.
//
// Flags shared with the other run binaries live in internal/cli; -churn
// (a per-tick probability) and -design (default optimized) differ here.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wsmalloc/internal/cli"
	"wsmalloc/internal/daemon"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// command is fleet-daemon's command line, every flag bound onto the
// daemon.Config field it sets.
type command struct {
	*cli.Flags
	cfg               daemon.Config
	listen, design    string
	tickMs, diurnalMs float64
}

func newCommand(stderr io.Writer) *command {
	c := &command{Flags: cli.New("fleet-daemon", stderr), cfg: daemon.DefaultConfig(1)}
	cfg := &c.cfg
	c.StringVar(&c.listen, "listen", ":8080", "HTTP listen address")
	c.IntVar(&cfg.Machines, "machines", 64, "fleet catalog size")
	c.Sample(&cfg.SampleFraction, 0.25)
	c.Seed(&cfg.Seed)
	c.StringVar(&c.design, "design", "optimized", "allocator design point: baseline, optimized, or tier=policy pairs")
	c.Float64Var(&c.tickMs, "tick-ms", 2, "virtual time per tick in ms")
	c.Float64Var(&c.diurnalMs, "diurnal-ms", 16, "diurnal load-curve period in ms")
	c.Workers(&cfg.Workers)
	c.Prob(&cfg.ChurnPerTick, "churn", 0.002, "per-machine cold-restart probability per tick")
	c.RestartOnOOM(&cfg.RestartOnOOM)
	c.IntVar(&cfg.RingCapacity, "ring", 256, "per-tick series ring capacity")
	c.Int64Var(&cfg.MaxTicks, "ticks", 0, "stop after this many ticks (0 = run until quit)")
	cli.Millis(c.FlagSet, (*int64)(&cfg.TickWall), "tick-wall-ms", 0, "wall-clock pacing per tick in `ms` (0 = free-running)")
	c.IntVar(&cfg.Watchdog.Window, "wd-window", 16, "watchdog baseline window in ticks")
	c.Float64Var(&cfg.Watchdog.RateThreshold, "wd-rate-threshold", 1.0, "watchdog relative rate-change threshold (1.0 = 2x baseline)")
	c.Float64Var(&cfg.Watchdog.MinRate, "wd-min-rate", 1, "minimum baseline events/tick for a rate alert")
	c.IntVar(&cfg.Rollout.StageTicks, "rollout-stage-ticks", 8, "baked ticks per rollout stage before the promotion gate")
	c.IntVar(&cfg.Rollout.SettleTicks, "rollout-settle-ticks", 2, "gate-free ticks after each rollout stage swap (cold-cache settle)")
	c.Float64Var(&cfg.Rollout.PromoteThreshold, "rollout-threshold", 0.5, "max relative worsening of a watched rate (candidate vs control) the promotion gate tolerates")
	c.StringVar(&cfg.AlertLog, "alert-log", "", "append one JSON alert per line to this file")
	c.StringVar(&cfg.WebhookURL, "webhook", "", "POST each alert to this URL (best-effort)")
	c.CheckpointDir(&cfg.CheckpointDir, &cfg.Resume)
	c.IntVar(&cfg.CheckpointEveryTicks, "checkpoint-every-ticks", 64, "automatic checkpoint cadence in ticks (needs -checkpoint-dir)")
	c.StringVar(&cfg.GWP.Dir, "gwp-dir", "", "profile warehouse directory (enables continuous fleet profiling)")
	c.IntVar(&cfg.GWP.CollectEveryTicks, "gwp-every-ticks", 16, "ticks per profile window (needs -gwp-dir)")
	c.Float64Var(&cfg.GWP.SampleFraction, "gwp-sample", 0.01, "fraction of enrolled machines profiled per window")
	c.IntVar(&cfg.GWP.MinPerWindow, "gwp-min", 1, "minimum machines profiled per window")
	return c
}

func run(args []string, stdout, stderr io.Writer) int {
	c := newCommand(stderr)
	if code, ok := c.Parse(args); !ok {
		return code
	}
	cfg := c.cfg
	dp, err := cli.SetDesign(&cfg.AllocConfig, c.design)
	if err != nil {
		return cli.Usage(stderr, "%v", err)
	}
	cfg.Design = dp.String()
	cfg.TickNs, cfg.DiurnalPeriodNs = int64(c.tickMs*1e6), int64(c.diurnalMs*1e6)
	cfg.GWP.Enabled = cfg.GWP.Dir != ""

	d, err := daemon.New(cfg)
	if err != nil {
		return cli.Exit(stderr, err)
	}
	defer d.Close()

	ln, err := net.Listen("tcp", c.listen)
	if err != nil {
		return cli.Exit(stderr, err)
	}
	srv := &http.Server{Handler: d.Handler()}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "serve: %v\n", err)
		}
	}()
	st := d.Status()
	fmt.Fprintf(stdout, "fleet-daemon: %d machines enrolled, design %s, %gms ticks, serving on %s\n",
		st.Machines, cfg.Design, c.tickMs, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		d.Quit()
	}()

	runErr := d.Run(context.Background())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		return cli.Exit(stderr, runErr)
	}
	st = d.Status()
	fmt.Fprintf(stdout, "fleet-daemon: stopped at tick %d (%.1f ms virtual), %d restarts, %d alerts\n",
		st.Tick, st.VirtualSec*1e3, st.Restarts, st.AlertsTotal)
	return 0
}
