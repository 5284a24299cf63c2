package core

// Pluggable online placement. A Placer is the packing policy of one live
// tenant: given the current assignment it ranks the candidate cores for an
// arriving task (and may exclude cores its fit rule rejects outright).
// The admission layer then probes the cores in that order with the
// tenant's schedulability test and commits the first fit, so a Placer
// chooses *where to look first*, never whether an unschedulable placement
// is accepted — the test always gates.
//
// Placers are named and registry-backed (Placers, PlacerByName) so the
// chosen heuristic can travel: per-tenant create requests, journaled
// create-system events, snapshots and replication frames all carry the
// name, and recovery/failover rebuild the tenant with the identical
// packer. The default, "udp-ca", is the paper's criticality-aware
// utilization-difference policy and delegates to the assigner's pooled
// PlacementOrder — its candidate orders, placements and allocation
// behavior are bit-identical to the previously hardwired path.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"mcsched/internal/mcs"
)

// DefaultPlacement names the placement heuristic tenants get when none is
// requested: the paper's criticality-aware UDP policy. Journaled
// create-system events omit the placement field when it equals this name,
// so pre-existing journal byte streams replay unchanged.
const DefaultPlacement = "udp-ca"

// Placer ranks candidate cores for one arriving task. Implementations are
// stateless beyond the assigner they are handed (cursor-style policies
// read the assigner's LastCore), so one Placer value may serve many
// tenants and replay reproduces live decisions exactly.
type Placer interface {
	// Name is the registry key; it is journaled with the tenant.
	Name() string
	// Policy names the scan-order rule applied to the task in human
	// terms, for decision traces.
	Policy(t mcs.Task) string
	// Order returns the candidate cores in preference order, with cores
	// the placer's fit rule excludes omitted. The slice is pooled scratch
	// owned by the assigner, valid until the next order-producing call.
	Order(a *Assigner, t mcs.Task) []int
	// Score is core k's figure of merit for the task — the key Order
	// ranked it by (lower is tried earlier for sorted policies, the scan
	// position for first/next-fit, the Liu–Layland slack for P-RM).
	// Decision traces record it so an operator can see why a core was
	// preferred.
	Score(a *Assigner, t mcs.Task, k int) float64
}

// ---------------------------------------------------------------------------
// udp-ca: the paper's policy, bit-identical to the pre-registry path
// ---------------------------------------------------------------------------

// udpPlacer is the paper's online UDP rule: HC tasks worst-fit by the
// per-core utilization difference UHH−ULH, LC tasks first-fit.
type udpPlacer struct{}

func (udpPlacer) Name() string { return DefaultPlacement }

func (udpPlacer) Policy(t mcs.Task) string {
	if t.IsHC() {
		return "worst-fit by utilization difference"
	}
	return "first-fit"
}

func (udpPlacer) Order(a *Assigner, t mcs.Task) []int { return a.PlacementOrder(t) }

func (udpPlacer) Score(a *Assigner, t mcs.Task, k int) float64 {
	if t.IsHC() {
		return a.UtilDiff(k)
	}
	return float64(k)
}

// ---------------------------------------------------------------------------
// First-fit and next-fit
// ---------------------------------------------------------------------------

// firstFitPlacer tries cores in index order for every task.
type firstFitPlacer struct{}

func (firstFitPlacer) Name() string                        { return "ff" }
func (firstFitPlacer) Policy(mcs.Task) string              { return "first-fit" }
func (firstFitPlacer) Order(a *Assigner, _ mcs.Task) []int { return a.identityOrder() }
func (firstFitPlacer) Score(_ *Assigner, _ mcs.Task, k int) float64 {
	return float64(k)
}

// nextFitPlacer scans from the core of the most recent commit, wrapping —
// the classic next-fit cursor. The cursor is the assigner's LastCore, and
// it is state of its own: Remove does not rewind it and the partition does
// not determine it, so whoever undoes a Commit (a rolled-back tentative
// batch placement) or rebuilds an assigner from a partition (a snapshot
// restore) must put it back with SetLastCore. Replay reproduces it only
// because the admission layer does both.
type nextFitPlacer struct{}

func (nextFitPlacer) Name() string           { return "nf" }
func (nextFitPlacer) Policy(mcs.Task) string { return "next-fit from last-used core" }

func (nextFitPlacer) Order(a *Assigner, _ mcs.Task) []int {
	order := a.identityOrder()
	start := a.LastCore()
	if start < 0 {
		start = 0
	}
	m := len(order)
	for i := range order {
		order[i] = (start + i) % m
	}
	return order
}

func (nextFitPlacer) Score(a *Assigner, _ mcs.Task, k int) float64 {
	start := a.LastCore()
	if start < 0 {
		start = 0
	}
	m := a.NumCores()
	return float64((k - start + m) % m)
}

// ---------------------------------------------------------------------------
// Best-fit / worst-fit over utilization measures
// ---------------------------------------------------------------------------

// utilMeasure selects the per-core load a fitBy placer sorts on.
type utilMeasure int

const (
	measureLo    utilMeasure = iota // LO-mode utilization Σ u^L
	measureHi                       // HI-mode utilization Σ u^H over HC tasks
	measureTotal                    // Σ of each task's level utilization
)

func (m utilMeasure) name() string {
	switch m {
	case measureLo:
		return "lo"
	case measureHi:
		return "hi"
	default:
		return "total"
	}
}

func (m utilMeasure) of(a *Assigner, k int) float64 {
	switch m {
	case measureLo:
		return a.LoUtil(k)
	case measureHi:
		return a.UHH(k)
	default:
		return a.TotalUtil(k)
	}
}

// fitByPlacer is the best-fit/worst-fit pair over one utilization measure:
// best-fit tries the most loaded core first (packing tight, keeping cores
// free), worst-fit the least loaded (balancing load across cores).
type fitByPlacer struct {
	measure utilMeasure
	best    bool
}

func (p fitByPlacer) Name() string {
	if p.best {
		return "bf-" + p.measure.name()
	}
	return "wf-" + p.measure.name()
}

func (p fitByPlacer) Policy(mcs.Task) string {
	kind := "worst-fit"
	if p.best {
		kind = "best-fit"
	}
	return kind + " by " + p.measure.name() + " utilization"
}

func (p fitByPlacer) Order(a *Assigner, _ mcs.Task) []int {
	order := a.identityOrder()
	sortOrder(order, func(k int) float64 { return p.measure.of(a, k) }, p.best)
	return order
}

func (p fitByPlacer) Score(a *Assigner, _ mcs.Task, k int) float64 {
	v := p.measure.of(a, k)
	if p.best {
		// Higher load sorts earlier under best-fit; negate so the recorded
		// score keeps the "lower is preferred" reading of every placer.
		return -v
	}
	return v
}

// ---------------------------------------------------------------------------
// P-RM: Liu–Layland-bound packing
// ---------------------------------------------------------------------------

// urm is the Liu–Layland rate-monotonic utilization bound for n tasks:
// n·(2^(1/n) − 1). It tends to ln 2 ≈ 0.693 as n grows.
func urm(n int) float64 {
	if n <= 0 {
		return 1
	}
	x := float64(n)
	return x * (math.Exp2(1/x) - 1)
}

// prmPlacer packs first-fit under the Liu–Layland bound: core k is a
// candidate only while its total utilization plus the incoming task's
// stays within urm(n+1) for the n tasks already resident. The bound is a
// sufficient RM-schedulability condition for implicit deadlines, used here
// purely as a packing pre-filter — the tenant's configured schedulability
// test still judges every candidate, so constrained-deadline sets remain
// sound (the filter only prunes the scan).
type prmPlacer struct{}

func (prmPlacer) Name() string           { return "prm-ll" }
func (prmPlacer) Policy(mcs.Task) string { return "first-fit under the Liu–Layland bound" }

func (prmPlacer) Order(a *Assigner, t mcs.Task) []int {
	order := a.identityOrder()
	u := t.LevelUtil()
	kept := order[:0]
	for _, k := range order {
		if a.TotalUtil(k)+u <= urm(len(a.Core(k))+1) {
			kept = append(kept, k)
		}
	}
	return kept
}

func (prmPlacer) Score(a *Assigner, t mcs.Task, k int) float64 {
	// The Liu–Layland slack after placing the task; negative means the
	// bound excluded the core from the scan.
	return urm(len(a.Core(k))+1) - (a.TotalUtil(k) + t.LevelUtil())
}

// ---------------------------------------------------------------------------
// Per-core utilization limits: "<name>@<limit>"
// ---------------------------------------------------------------------------

// limitedPlacer caps the per-core total utilization of a base placer:
// cores whose total utilization would exceed the limit after the task are
// excluded from the candidate order (snippet-2-style capacity limits).
type limitedPlacer struct {
	base  Placer
	limit float64
}

func (p limitedPlacer) Name() string {
	return p.base.Name() + "@" + strconv.FormatFloat(p.limit, 'g', -1, 64)
}

func (p limitedPlacer) Policy(t mcs.Task) string {
	return p.base.Policy(t) + fmt.Sprintf(" capped at %g per core", p.limit)
}

func (p limitedPlacer) Order(a *Assigner, t mcs.Task) []int {
	order := p.base.Order(a, t)
	u := t.LevelUtil()
	kept := order[:0]
	for _, k := range order {
		if a.TotalUtil(k)+u <= p.limit {
			kept = append(kept, k)
		}
	}
	return kept
}

func (p limitedPlacer) Score(a *Assigner, t mcs.Task, k int) float64 {
	return p.base.Score(a, t, k)
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// Placers returns every registered placement heuristic in a stable order:
// the paper's default first, then the bin-packing classics, then the
// utilization-steered best/worst-fit family, then Liu–Layland P-RM.
func Placers() []Placer {
	return []Placer{
		udpPlacer{},
		firstFitPlacer{},
		nextFitPlacer{},
		fitByPlacer{measure: measureLo, best: true},
		fitByPlacer{measure: measureHi, best: true},
		fitByPlacer{measure: measureTotal, best: true},
		fitByPlacer{measure: measureLo},
		fitByPlacer{measure: measureHi},
		fitByPlacer{measure: measureTotal},
		prmPlacer{},
	}
}

// PlacerByName resolves a placement heuristic by registry name; ok=false
// when unknown. The empty name resolves to the default. A "<name>@<limit>"
// suffix wraps the base heuristic with a per-core total-utilization cap;
// the limit must parse as a float in (0, 1].
func PlacerByName(name string) (Placer, bool) {
	if name == "" {
		name = DefaultPlacement
	}
	base, limitStr, limited := strings.Cut(name, "@")
	var p Placer
	for _, cand := range Placers() {
		if cand.Name() == base {
			p = cand
			break
		}
	}
	if p == nil {
		return nil, false
	}
	if !limited {
		return p, true
	}
	limit, err := strconv.ParseFloat(limitStr, 64)
	if err != nil || math.IsNaN(limit) || limit <= 0 || limit > 1 {
		return nil, false
	}
	lp := limitedPlacer{base: p, limit: limit}
	if lp.Name() != name {
		// Canonical spelling only, so the journaled name round-trips
		// bit-identically ("ff@0.80" must be written "ff@0.8").
		return nil, false
	}
	return lp, true
}

// PlacementNames returns the registry names in Placers order — the list
// the daemon serves from GET /v1/strategies.
func PlacementNames() []string {
	ps := Placers()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name()
	}
	return names
}
