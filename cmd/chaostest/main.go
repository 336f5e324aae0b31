// Command chaostest runs deterministic chaos campaigns against the
// distributed session tier (docs/robustness.md): for each schedule it
// spawns an in-process cluster — N replicas over one shared
// fault-injecting checkpoint store behind the real router — drives a
// seed-derived sequence of create/step/checkpoint/kill/revive
// operations through it with faults firing on the store and network
// paths at chaos.DefaultFaults' rates (each of the seven fault classes at
// 5%), then checks the tier's invariants with faults off:
//
//   - an acked durable checkpoint is never lost (the session stays
//     reachable at or past the acked cycle),
//   - rehydrated state is bit-exact (StateHash against a local replay),
//   - store versions only move forward,
//   - every client-visible outcome is typed.
//
// Campaign seeds derive additively from -chaos-seed (internal/seeds):
// schedule i runs under seed base+i, so a failing schedule replays
// alone with `-chaos-seed <derived> -schedules 1`. On failure the
// schedule is shrunk to its shortest failing prefix and the exact
// reproducer command line is printed.
//
// CI runs this per-PR as the chaos-smoke lane (fixed seed, fixed
// schedule count) plus one campaign with -drop-acked-puts, a planted
// durability bug the harness MUST catch — proving the lane can fail.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"riscvsim/internal/chaos"
	"riscvsim/internal/seeds"
)

func main() {
	var (
		baseSeed  = flag.Int64("chaos-seed", 1, "base seed; schedule i runs under seed base+i")
		schedules = flag.Int("schedules", 200, "how many schedules to run")
		ops       = flag.Int("ops", 60, "operations per schedule")
		sessions  = flag.Int("sessions", 4, "session slots per schedule")
		replicas  = flag.Int("replicas", 3, "replicas per cluster")
		storeDir  = flag.String("store-dir", "", "back the shared store with this directory (empty = in-memory)")
		minimize  = flag.Bool("minimize", true, "shrink a failing schedule to its shortest failing prefix")
		dropAcked = flag.Bool("drop-acked-puts", false, "plant the acked-checkpoint-loss bug in the store (harness self-test: the campaign MUST fail)")
		reproOut  = flag.String("repro-out", "", "append failing reproducer command lines to this file (CI artifact)")
		verbose   = flag.Bool("v", false, "per-schedule result lines")
	)
	flag.Parse()

	replicaNames := make([]string, *replicas)
	for i := range replicaNames {
		replicaNames[i] = fmt.Sprintf("sim%d", i+1)
	}

	start := time.Now()
	failures := 0
	for i := 0; i < *schedules; i++ {
		seed := seeds.Derive(*baseSeed, i)
		cfg := chaos.DefaultFaults(seed)
		cfg.DropAckedPuts = *dropAcked
		cfg.Replicas = *replicas
		cfg.StoreDir = scopedDir(*storeDir, i)
		sched := chaos.BuildSchedule(seed, *ops, *sessions, replicaNames)
		res, err := chaos.Run(cfg, sched)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaostest: harness error at seed %d: %v\n", seed, err)
			os.Exit(2)
		}
		if *verbose || res.Failed() {
			fmt.Println(res.Summary())
		}
		if !res.Failed() {
			continue
		}
		failures++
		for _, v := range res.Violations {
			fmt.Printf("  violation: %s\n", v)
		}
		repro := len(sched)
		if *minimize {
			if minSched, minRes, merr := chaos.Minimize(cfg, sched); merr == nil {
				repro = len(minSched)
				fmt.Printf("  minimized: %d ops -> %d ops, first violation: %s\n",
					len(sched), len(minSched), minRes.Violations[0])
			} else {
				fmt.Printf("  minimize failed: %v\n", merr)
			}
		}
		line := fmt.Sprintf("chaostest -chaos-seed %d -schedules 1 -ops %d -sessions %d -replicas %d%s",
			seed, repro, *sessions, *replicas, flagSuffix(*dropAcked))
		fmt.Printf("  reproduce: %s\n", line)
		if *reproOut != "" {
			appendLine(*reproOut, line)
		}
	}

	fmt.Printf("chaostest: %d schedules, %d failed, %v\n", *schedules, failures, time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		os.Exit(1)
	}
}

// scopedDir gives each schedule its own store directory so campaigns
// on a shared volume don't cross-contaminate session namespaces.
func scopedDir(base string, i int) string {
	if base == "" {
		return ""
	}
	return fmt.Sprintf("%s/sched%04d", base, i)
}

// appendLine appends one reproducer line to path (best-effort: a
// failed write must not mask the campaign failure itself).
func appendLine(path, line string) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaostest: repro-out: %v\n", err)
		return
	}
	defer f.Close()
	fmt.Fprintln(f, line)
}

// flagSuffix keeps reproducer lines exact when the self-test bug was
// planted.
func flagSuffix(dropAcked bool) string {
	if dropAcked {
		return " -drop-acked-puts"
	}
	return ""
}
