package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// spec is BENCHMARK.json: the benchmark's workloads and the metrics it
// reports, with their units, direction and regression bounds.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specWL     `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadSpec reads and validates BENCHMARK.json at path.
func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSpec(data)
}

func parseSpec(data []byte) (*spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, s.validate()
}

func (s *spec) validate() error {
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("BENCHMARK.json: bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("BENCHMARK.json: name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("BENCHMARK.json: run_seconds %d outside 1..60", s.RunSeconds)
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		return fmt.Errorf("BENCHMARK.json: %d workloads, want 2..8", len(s.Workloads))
	}
	for _, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			return fmt.Errorf("BENCHMARK.json: workload %s needs a one-line why of at most 200 characters", w.Name)
		}
	}
	metric := func(m specMetric, e2e bool) error {
		if err := name(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			return fmt.Errorf("BENCHMARK.json: metric %s: bad unit %q or better %q", m.Name, m.Unit, m.Better)
		}
		if e2e != (m.Bound != nil) {
			return fmt.Errorf("BENCHMARK.json: metric %s: a bound belongs to exactly the end-to-end metrics", m.Name)
		}
		if e2e && (*m.Bound <= 0 || *m.Bound > 0.25) {
			return fmt.Errorf("BENCHMARK.json: metric %s: bound %g outside (0, 0.25]", m.Name, *m.Bound)
		}
		return nil
	}
	for _, m := range s.EndToEnd {
		if err := metric(m, true); err != nil {
			return err
		}
	}
	for _, m := range s.PerLayer {
		if err := metric(m, false); err != nil {
			return err
		}
	}
	if !seen["setup_s"] {
		return fmt.Errorf("BENCHMARK.json: no setup_s metric")
	}
	return nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
