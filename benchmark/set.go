package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// series is one end-to-end metric over the untraced runs of a set.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
}

func (s *series) summarize() {
	s.Median = median(s.Values)
	s.Q1, s.Q3 = quartiles(s.Values)
	s.Spread = spread(s.Values)
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Sessions  int                `json:"sessions"`
	Loop      string             `json:"loop"`
	Sizes     sizes              `json:"sizes"`
	Noisy     bool               `json:"noisy"`
	NoisyWhy  []string           `json:"noisy_why,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	Info      map[string]*series `json:"info"`
	// PerLayer and Breakdown come from the one traced pass (seed Seed).
	PerLayer    map[string]metric `json:"per_layer"`
	Breakdown   []breakdownRow    `json:"breakdown"`
	Calibration []float64         `json:"calibration_ns_op"`
}

// resultFile is what -workload all writes and -compare reads: a set of runs
// of one commit on one host.
type resultFile struct {
	Host      hostInfo                   `json:"host"`
	Seed      int64                      `json:"seed"`
	Runs      int                        `json:"runs"`
	Seconds   float64                    `json:"seconds"`
	Scale     string                     `json:"scale"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// runSet runs every workload runs times untraced (seeds seed, seed+1, …) and
// once traced (seed), each run in a child process of this same binary started
// exactly as the driver starts it, so that peak RSS and allocation counts
// belong to one run. It prints every metric and writes the set to out.
func runSet(seed int64, runs int, seconds float64, scale, out string) error {
	if runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	rf := &resultFile{Host: readHost(), Seed: seed, Runs: runs, Seconds: seconds, Scale: scale,
		Workloads: map[string]*workloadResult{}}
	failed := 0
	for _, name := range workloadNames {
		wr := &workloadResult{EndToEnd: map[string]*series{}, Info: map[string]*series{}}
		rf.Workloads[name] = wr
		for i := 0; i <= runs; i++ {
			traced := i == runs
			runSeed := seed + int64(i)
			if traced {
				runSeed = seed
			}
			rep, err := runChild(self, name, runSeed, seconds, scale, traced)
			if err != nil {
				return err
			}
			printReport(rep, os.Stdout)
			wr.Sessions, wr.Loop, wr.Sizes = rep.Sessions, rep.Loop, rep.Sizes
			wr.Attempted += rep.Attempted
			wr.Failed += rep.Failed
			failed += rep.Failed
			wr.Calibration = append(wr.Calibration, rep.CalBefore, rep.CalAfter)
			if rep.Noisy {
				wr.Noisy = true
				wr.NoisyWhy = append(wr.NoisyWhy, rep.NoisyWhy...)
			}
			if traced {
				wr.PerLayer, wr.Breakdown = rep.Metrics, rep.Breakdown
				continue
			}
			collect(wr.EndToEnd, rep.Metrics)
			collect(wr.Info, rep.Info)
		}
		for _, group := range []map[string]*series{wr.EndToEnd, wr.Info} {
			for _, s := range group {
				s.summarize()
			}
		}
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func collect(dst map[string]*series, src map[string]metric) {
	for name, m := range src {
		s := dst[name]
		if s == nil {
			s = &series{Unit: m.Unit}
			dst[name] = s
		}
		s.Values = append(s.Values, m.Value)
	}
}

// runChild starts one run in its own process, waits for it and returns the
// report it printed on its second-to-last line.
func runChild(self, workload string, seed int64, seconds float64, scale string, traced bool) (*report, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-scale", scale, "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // waits for the child to exit
	rep, err := parseReport(&stdout)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d trace %s: %w", workload, seed, trace, errors.Join(err, runErr))
	}
	return rep, nil
}

func parseReport(r io.Reader) (*report, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var line string
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "report ") {
			line = strings.TrimPrefix(sc.Text(), "report ")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if line == "" {
		return nil, fmt.Errorf("child printed no report")
	}
	rep := &report{}
	if err := json.Unmarshal([]byte(line), rep); err != nil {
		return nil, fmt.Errorf("parse report: %w", err)
	}
	return rep, nil
}
