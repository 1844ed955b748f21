package route

import (
	"fmt"
	"sync"
)

// Directive is an operator's request to change the routing plane: each
// zero field means "keep the current value". Directives arrive from the
// proxy's /v1/admin/topology endpoint or from mixnn-proxy's -shards-file
// hot reload; the Planner turns them into the next epoch's Topology.
type Directive struct {
	// Mode switches the routing policy (0 = keep).
	Mode Mode
	// RoundSize changes the round size C (0 = keep).
	RoundSize int
	// Shards replaces the shard set (nil = keep). An empty non-nil slice
	// is invalid — a tier cannot shrink to zero shards.
	Shards []ShardSpec
}

// Planner owns the routing plane's lifecycle: the current epoch's
// topology plus at most one staged successor. Stage validates and builds
// the successor immediately (so a bad directive fails at the admin call,
// not at round close); Advance promotes it — the proxy calls Advance
// inside the same critical section that swaps its per-epoch mixers, which
// is what makes membership changes atomic at round boundaries.
type Planner struct {
	mu     sync.Mutex
	cur    *Topology
	staged *Topology
}

// NewPlanner builds a planner over the tier's initial topology.
func NewPlanner(initial *Topology) *Planner {
	return &Planner{cur: initial}
}

// Staged returns the topology staged for the next epoch, nil if none.
func (p *Planner) Staged() *Topology {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.staged
}

// Stage computes the next epoch's topology from the current one plus the
// directive, validates it, and stages it for the next Advance. A second
// Stage before the next Advance replaces the previously staged plan (the
// operator's latest word wins). The staged topology's version is always
// current+1: versions count applied plans, not attempts.
func (p *Planner) Stage(d Directive) (*Topology, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	mode := d.Mode
	if mode == 0 {
		mode = p.cur.Mode()
	}
	roundSize := d.RoundSize
	if roundSize == 0 {
		roundSize = p.cur.RoundSize()
	}
	specs := d.Shards
	if specs == nil {
		specs = p.cur.Specs()
	} else if len(specs) == 0 {
		return nil, fmt.Errorf("route: directive with an empty shard set")
	}
	next, err := New(p.cur.Version()+1, mode, roundSize, specs)
	if err != nil {
		return nil, err
	}
	p.staged = next
	return next, nil
}

// Unstage discards the staged topology (if any). The proxy uses it to
// roll back a directive whose cross-process side effects (peer
// round-size syncs) could not complete — a half-applied plan must not
// auto-promote at the next round close.
func (p *Planner) Unstage() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.staged = nil
}

// Advance promotes the staged topology (if any) and returns the topology
// the new epoch should run under. Callers must invoke it exactly once per
// epoch swap, inside the swap's critical section.
func (p *Planner) Advance() *Topology {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.staged != nil {
		p.cur, p.staged = p.staged, nil
	}
	return p.cur
}

// Reset replaces the current topology outright (no version bump, staged
// plan discarded). RestoreState uses it when a sealed blob dictates the
// topology the tier must come back under.
func (p *Planner) Reset(t *Topology) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cur, p.staged = t, nil
}
