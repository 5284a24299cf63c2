package ey

import (
	"math/rand"
	"testing"

	"mcsched/internal/analysis/dbf"
	"mcsched/internal/mcs"
	"mcsched/internal/taskgen"
)

// loWalkSeen is one LO-mode walk as the Shaper's hook reports it.
type loWalkSeen struct {
	known dbf.Free
	rose  dbf.Windows
	ok    bool
}

// TestShaperLOProofBit pins the precondition of the windowed walk: it is
// sound only while the curves a try starts from are proved violation-free
// everywhere, so after anything that can raise LO demand — Extend,
// Truncate (which leaves a shaped prefix behind), Scale, RestoreLoosest,
// a lowering SetHCVD — tuneStep must walk the full horizon, with no
// certificate from before, until a walk has succeeded again. A raising
// SetHCVD lowers LO demand and keeps the bit.
func TestShaperLOProofBit(t *testing.T) {
	extra := mcs.NewLCConstrained(99, 1, 40, 7)
	ops := []struct {
		name  string
		keeps bool
		do    func(s *Shaper, moved int)
	}{
		{"Extend", false, func(s *Shaper, _ int) { s.Extend(extra) }},
		{"Truncate", false, func(s *Shaper, _ int) {
			undo := s.Extend(extra)
			s.loFree, s.loProved = dbf.Free{Lo: 1, Hi: 2}, true // as a successful probe leaves them
			s.Truncate(undo)
		}},
		{"Scale", false, func(s *Shaper, _ int) { s.Scale(0.8) }},
		{"RestoreLoosest", false, func(s *Shaper, _ int) { s.RestoreLoosest() }},
		{"SetHCVD down", false, func(s *Shaper, j int) { s.SetHCVD(j, s.HCVD(j)-1) }},
		{"SetHCVD up", true, func(s *Shaper, j int) { s.SetHCVD(j, s.HCVD(j)+1) }},
	}
	rng := rand.New(rand.NewSource(22))
	ran := make([]int, len(ops))
	for sets := 0; sets < 400; {
		cfg := taskgen.DefaultConfig(1, 0.5+0.4*rng.Float64(), 0.1+0.3*rng.Float64(), 0.1+0.4*rng.Float64())
		cfg.NMin, cfg.NMax = 3, 10
		cfg.Constrained = true
		ts, err := taskgen.Generate(rng, cfg)
		if err != nil {
			continue
		}
		sets++
		for i, op := range ops {
			var s Shaper
			var seen []loWalkSeen
			s.SetLOWalkHook(func(known dbf.Free, rose dbf.Windows, ok bool) {
				seen = append(seen, loWalkSeen{known, rose, ok})
			})
			// step takes one tuneStep at the current HI witness and returns
			// the LO walks it made; nil when there is nothing to tune.
			step := func() []loWalkSeen {
				w, demand, ok := s.HIFeasible()
				if ok {
					return nil
				}
				seen = seen[:0]
				s.tuneStep(w, demand)
				return seen
			}
			s.Reset(ts)
			if !s.LOFeasible() || !s.loProved {
				break // nothing to shape
			}
			// One proved step first, so that a deadline has moved and the
			// bit and a certificate are there to be dropped.
			before := shaperVDs(&s, ts)
			walks := step()
			if len(walks) == 0 || !s.loProved {
				break
			}
			if walks[0].rose == (dbf.Windows{}) {
				t.Fatalf("first try of a proved step walked the full horizon: %+v", walks[0])
			}
			moved := -1
			for j := range s.saws {
				if d := s.HCVD(j); d != before[ts[s.taskOf[j]].ID] && d > s.saws[j].CL {
					moved = j
				}
			}
			if moved < 0 {
				continue // the step froze a task instead
			}

			op.do(&s, moved)
			if s.loProved != op.keeps {
				t.Fatalf("%s: loProved=%v afterwards, want %v", op.name, s.loProved, op.keeps)
			}
			if !op.keeps && s.loFree != (dbf.Free{}) {
				t.Fatalf("%s: LO certificate %+v survived", op.name, s.loFree)
			}
			walks = step()
			if len(walks) == 0 {
				continue
			}
			ran[i]++
			if op.keeps {
				if walks[0].rose == (dbf.Windows{}) {
					t.Fatalf("%s: the next try walked the full horizon", op.name)
				}
				continue
			}
			proved := false
			for n, w := range walks {
				if !proved && (w.rose != (dbf.Windows{}) || (n == 0 && w.known != (dbf.Free{}))) {
					t.Fatalf("%s: walk %d of the next step ran on %+v before any full walk had succeeded", op.name, n, w)
				}
				if proved && w.rose == (dbf.Windows{}) {
					t.Fatalf("%s: walk %d of the next step is full although walk %d succeeded", op.name, n, n-1)
				}
				proved = proved || w.ok
			}
			if proved != s.loProved {
				t.Fatalf("%s: loProved=%v after a step whose walks succeeded=%v", op.name, s.loProved, proved)
			}
		}
	}
	for i, op := range ops {
		if ran[i] < 20 {
			t.Fatalf("corpus too tame: %s exercised %d times", op.name, ran[i])
		}
	}
}

// FuzzLOWindows runs the shaping differential — every run ECDF can start,
// tuneStep by tuneStep against the stateless Engine, every LO-mode walk
// against a fresh full one — on generator sets drawn from the fuzzed
// parameters. Short periods keep hyperperiods small, so the periodic
// horizon, the one a deadline move can raise, often binds.
func FuzzLOWindows(f *testing.F) {
	// Each but the last draws a set whose runs take dozens of tuneSteps with
	// failed windowed tries and resumed walks; the last is an infeasible draw.
	f.Add(int64(1626), uint8(81), uint8(44), uint8(30), uint16(200), uint8(7))
	f.Add(int64(239), uint8(79), uint8(19), uint8(38), uint16(60), uint8(0))
	f.Add(int64(801), uint8(35), uint8(5), uint8(46), uint16(24), uint8(8))
	f.Add(int64(793), uint8(91), uint8(50), uint8(16), uint16(500), uint8(8))
	f.Add(int64(1316), uint8(71), uint8(6), uint8(19), uint16(24), uint8(8))
	f.Add(int64(2638), uint8(52), uint8(8), uint8(25), uint16(12), uint8(6))
	f.Add(int64(967), uint8(70), uint8(13), uint8(4), uint16(60), uint8(3))
	f.Add(int64(1783), uint8(77), uint8(16), uint8(31), uint16(500), uint8(4))
	f.Add(int64(2), uint8(90), uint8(45), uint8(5), uint16(24), uint8(4))
	f.Add(int64(22), uint8(99), uint8(10), uint8(0), uint16(60), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, uhh, ulh, ull uint8, tmax uint16, n uint8) {
		hh := float64(uhh%100) / 100
		lh := float64(ulh%100) / 100
		if lh > hh {
			lh = hh
		}
		cfg := taskgen.DefaultConfig(1, hh, lh, float64(ull%100)/100)
		cfg.NMin = 2 + int(n%9)
		cfg.NMax = cfg.NMin + 2
		cfg.TMax = cfg.TMin + mcs.Ticks(tmax%1000)
		cfg.Constrained = true
		ts, err := taskgen.Generate(rand.New(rand.NewSource(seed)), cfg)
		if err != nil {
			return // infeasible generator draw
		}
		diffShapingRuns(t, ts, &loWalkStats{})
	})
}
