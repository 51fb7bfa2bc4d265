// The -supervise mode: instead of running ranks itself, this process owns
// the rank lifecycle end to end — it launches one tilenode OS process per
// rank, watches for failures, and on a crash tears the world down and
// relaunches every rank under a bumped epoch with -restore, resuming from
// the newest valid checkpoint generation. Recovery is bounded by
// -max-restarts (per rank) and -supervise-deadline (whole run); a
// persistently failing rank converges to a clean typed failure instead of
// a restart loop.
//
//	tilenode -supervise -shape 2d -space2d 512x64 -s1 16 -ranks 4 \
//	         -heartbeat 200ms -deadline 10s \
//	         -checkpoint-dir /tmp/ck -checkpoint-every 4
//
// The -chaos-kills drill SIGKILLs -chaos-victim that many times, each at a
// later checkpoint frontier, and the run must still finish with a grid
// byte-identical to a fault-free one.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/supervise"
)

var (
	superviseFlag = flag.Bool("supervise", false,
		"supervise one OS process per rank with automatic restart+restore (needs -checkpoint-dir/-checkpoint-every)")
	epochFlag = flag.Uint("epoch", 0,
		"world epoch stamped into the transport handshake (set per epoch by -supervise)")
	maxRestartsFlag = flag.Int("max-restarts", 3,
		"per-rank restart budget under -supervise (0 = first crash is terminal)")
	restartBackoff = flag.Duration("restart-backoff", 100*time.Millisecond,
		"base restart delay under -supervise; doubles per restart of a rank")
	superviseDeadline = flag.Duration("supervise-deadline", 0,
		"cap on the whole supervised run, restarts and backoff included (0 = unbounded)")
	superviseGrace = flag.Duration("supervise-grace", 5*time.Second,
		"teardown grace: peers still running this long after a failure are killed")
	chaosKillsFlag = flag.Int("chaos-kills", 0,
		"drill: SIGKILL -chaos-victim this many times, each at a later checkpoint frontier")
	chaosVictimFlag = flag.Int("chaos-victim", 1, "drill: the rank the chaos killer targets")
)

func superviseMain() error {
	if *spawnFlag || *rankFlag >= 0 {
		return fmt.Errorf("-supervise replaces -spawn/-rank: it launches one process per rank itself")
	}
	if *ckDirFlag == "" || *ckEveryFlag <= 0 {
		return fmt.Errorf("-supervise needs -checkpoint-dir and -checkpoint-every: recovery restores from snapshots")
	}
	j, err := buildJob()
	if err != nil {
		return err
	}
	n := j.ranks
	if *chaosKillsFlag > 0 && (*chaosVictimFlag < 0 || *chaosVictimFlag >= n) {
		return fmt.Errorf("-chaos-victim %d out of range [0,%d)", *chaosVictimFlag, n)
	}

	rec := obs.NewRecoveryMetrics(n, int64(n)*j.tiles)
	var reg *obs.Registry
	if *metricsAddr != "" || *metricsSnap != "" {
		reg = obs.NewRegistry()
		reg.RegisterRecovery(rec)
	}
	if *metricsAddr != "" {
		srv, err := reg.Start(*metricsAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "tilenode: metrics on http://%s/debug/vars\n", srv.Addr)
	}

	l := &launcher{n: n}
	done := make(chan struct{})
	defer close(done)
	if *chaosKillsFlag > 0 {
		go chaosKiller(done, l, j.tiles)
	}

	res, runErr := supervise.Run(supervise.Config{
		Size:          n,
		Launch:        l.launch,
		MaxRestarts:   *maxRestartsFlag,
		Backoff:       *restartBackoff,
		Grace:         *superviseGrace,
		Deadline:      *superviseDeadline,
		Restore:       *restoreFlag,
		CheckpointDir: *ckDirFlag,
		OnIncident: func(inc supervise.Incident) {
			rec.RecordIncident(obs.RecoveryIncident{
				Epoch:       inc.Epoch,
				Victim:      inc.Victim,
				Cause:       fmt.Sprint(inc.Cause),
				DetectNs:    inc.Detect.Nanoseconds(),
				BackoffNs:   inc.Backoff.Nanoseconds(),
				RestoreNs:   inc.Restore.Nanoseconds(),
				MTTRNs:      inc.MTTR.Nanoseconds(),
				WastedTiles: inc.WastedTiles,
			})
			fmt.Fprintf(os.Stderr,
				"tilenode: supervise: incident epoch=%d victim=%d detect=%v restore=%v mttr=%v wasted_tiles=%d cause=%v\n",
				inc.Epoch, inc.Victim, inc.Detect.Round(time.Millisecond),
				inc.Restore.Round(time.Millisecond), inc.MTTR.Round(time.Millisecond),
				inc.WastedTiles, inc.Cause)
		},
	})
	if runErr != nil {
		rec.RecordFailure(runErr.Error())
	}
	if res != nil {
		snap := rec.Snapshot()
		fmt.Fprintf(os.Stderr,
			"tilenode: supervise: epochs=%d incidents=%d restarts_per_rank=%v wasted_tiles=%d wasted_fraction=%.4f elapsed=%v\n",
			res.Epochs, len(res.Incidents), res.RestartsPerRank,
			snap.WastedTiles, snap.WastedFraction, res.Elapsed.Round(time.Millisecond))
	}
	if reg != nil && *metricsSnap != "" {
		w := os.Stdout
		if *metricsSnap != "-" {
			f, ferr := os.Create(*metricsSnap)
			if ferr != nil {
				if runErr == nil {
					runErr = ferr
				}
			} else {
				defer f.Close()
				w = f
			}
		}
		if werr := reg.WriteJSON(w); werr != nil && runErr == nil {
			runErr = werr
		}
	}
	return runErr
}

// launcher starts one tilenode child process per rank, allocating a fresh
// set of loopback ports for every epoch: a rebuilt world must not fight a
// dying one over listen sockets, and the epoch stamp (not the address)
// is what keeps stragglers out.
type launcher struct {
	n int

	mu    sync.Mutex
	epoch uint32
	addrs []string
	procs []*exec.Cmd
}

func (l *launcher) launch(sp supervise.Spec) (supervise.Proc, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.addrs == nil || sp.Epoch != l.epoch {
		addrs, err := loopbackAddrs(l.n)
		if err != nil {
			return nil, err
		}
		l.addrs, l.epoch = addrs, sp.Epoch
		l.procs = make([]*exec.Cmd, l.n)
	}
	cmd := exec.Command(os.Args[0], childArgs(sp, l.addrs)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	l.procs[sp.Rank] = cmd
	return supervise.CmdProc{Cmd: cmd}, nil
}

// rankProcess returns the rank's current-epoch process, if it was started.
func (l *launcher) rankProcess(rank int) *os.Process {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.procs == nil || l.procs[rank] == nil {
		return nil
	}
	return l.procs[rank].Process
}

// childArgs rebuilds the tilenode flag set for one rank of one epoch. The
// child runs this same binary in plain -rank mode with the epoch stamped
// into its transport handshake.
func childArgs(sp supervise.Spec, addrs []string) []string {
	args := []string{
		"-rank", fmt.Sprint(sp.Rank),
		"-addrs", strings.Join(addrs, ","),
		"-shape", *shapeFlag,
		"-space", *spaceFlag, "-procs", *procsFlag, "-v", fmt.Sprint(*vFlag),
		"-space2d", *space2Flag, "-s1", fmt.Sprint(*s1Flag), "-ranks", fmt.Sprint(*ranksFlag),
		"-mode", *modeFlag,
		fmt.Sprintf("-verify=%v", *verify),
		"-epoch", fmt.Sprint(sp.Epoch),
		"-checkpoint-dir", *ckDirFlag,
		"-checkpoint-every", fmt.Sprint(*ckEveryFlag),
	}
	if sp.Restore {
		args = append(args, "-restore")
	}
	if *deadlineFlag > 0 {
		args = append(args, "-deadline", deadlineFlag.String())
	}
	if *heartbeatFlag > 0 {
		args = append(args, "-heartbeat", heartbeatFlag.String())
	}
	if *tileDelay > 0 {
		args = append(args, "-tile-delay", tileDelay.String())
	}
	if sp.Rank == 0 && *gridOutFlag != "" {
		args = append(args, "-grid-out", *gridOutFlag)
	}
	return args
}

// chaosKiller drives the -chaos-kills drill: it SIGKILLs the victim rank
// each time the victim's checkpoint frontier first reaches a later
// wavefront phase, so the kills land at distinct points of the computation
// instead of racing startup. The frontier gate also means a kill only ever
// targets a live, progressing epoch: the victim cannot have checkpointed
// past the next threshold without having been relaunched first.
func chaosKiller(done <-chan struct{}, l *launcher, tilesPerRank int64) {
	kills, victim := *chaosKillsFlag, *chaosVictimFlag
	for i := 0; i < kills; i++ {
		target := (int64(i) + 1) * tilesPerRank / (int64(kills) + 1)
		if target < 1 {
			target = 1
		}
		for armed := true; armed; {
			select {
			case <-done:
				return
			case <-time.After(2 * time.Millisecond):
			}
			tile, _, err := runner.LatestCheckpoint(*ckDirFlag, victim)
			if err != nil || tile < target {
				continue
			}
			if p := l.rankProcess(victim); p != nil {
				_ = p.Kill()
				fmt.Fprintf(os.Stderr, "tilenode: chaos: SIGKILL rank %d at frontier %d (kill %d/%d)\n",
					victim, tile, i+1, kills)
				armed = false
			}
		}
	}
}
