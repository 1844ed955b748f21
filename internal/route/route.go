// Package route is the mixing tier's routing plane: an immutable,
// epoch-versioned Topology (shard set, per-shard round quotas, remote
// placement) plus the routing policies that map an incoming update onto a
// shard, and a Planner that stages the next epoch's topology so shard
// membership changes apply atomically at a round boundary.
//
// The package is deliberately dependency-free (stdlib only): the proxy
// owns mixers, enclaves and HTTP; route owns WHO an update goes to and
// HOW MANY a shard may take per round. A Topology never mutates after
// construction — the proxy swaps the whole value at round close, the same
// atomic swap that already rotates its per-epoch mixers, so resharding
// can never tear an open round.
package route

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
)

// Mode selects how updates are routed onto shards.
type Mode uint8

const (
	// ModeSticky is the legacy policy: a stable FNV hash of the client id
	// when the participant identifies itself (a client's updates always
	// meet the same buffer), round-robin for anonymous traffic. Quotas are
	// advisory only — sticky placement wins, matching the pre-topology
	// tier exactly.
	ModeSticky Mode = 1
	// modeRetired is the tag round-robin dealing had until it was removed
	// (no deployment selected it). It is not reassigned, so a sealed
	// topology or directive that still carries it is refused by name
	// (New, ParseMode) instead of being read as another mode.
	modeRetired Mode = 2
	// ModeHashQuota routes identified clients by consistent hashing over a
	// virtual-node ring (weighted by shard capacity) and enforces the
	// per-shard round quota: when the hashed shard is full the update
	// spills over to the least-relatively-loaded shard with capacity.
	// Anonymous traffic goes straight to the least-loaded shard.
	ModeHashQuota Mode = 3
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSticky:
		return "sticky"
	case ModeHashQuota:
		return "hash-quota"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// errRoundRobinRemoved answers modeRetired and its spellings wherever a
// flag, directive or sealed topology still carries them.
var errRoundRobinRemoved = errors.New("route: the round-robin routing mode was removed; use hash-quota (quota-enforcing) or sticky")

// ParseMode maps a flag/JSON spelling onto a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "sticky":
		return ModeSticky, nil
	case "hash-quota", "hash":
		return ModeHashQuota, nil
	case "round-robin", "rr":
		return 0, errRoundRobinRemoved
	default:
		return 0, fmt.Errorf("route: unknown routing mode %q (want sticky or hash-quota)", s)
	}
}

// ShardSpec describes one shard of a topology. A shard is local (an
// in-process mixer) when Addr is empty, or remote (a peer mixing proxy
// holding its own enclave, reached over the hop leg) when Addr is its
// base URL. Weight scales the shard's share of the round; the absolute
// per-round quota is derived from the weights and the round size.
type ShardSpec struct {
	Addr   string
	Weight int
}

// label is the shard's stable identity on the consistent-hash ring:
// remote shards are identified by address (so re-ordering the spec list
// does not reshuffle their keys), local shards by position.
func (s ShardSpec) label(index int) string {
	if s.Addr != "" {
		return s.Addr
	}
	return fmt.Sprintf("local/%d", index)
}

const (
	// MaxShards bounds the shard count a topology (or a parsed blob) may
	// claim.
	MaxShards = 1 << 12
	// maxAddrBytes bounds one shard address in a parsed blob.
	maxAddrBytes = 1 << 10
	// ringPointsPerWeight is the virtual-node count per weight unit; more
	// points smooth the ring at the cost of a larger sort at build time.
	ringPointsPerWeight = 32
	// maxRingPoints caps the ring size so a huge weight cannot buy an
	// unbounded allocation.
	maxRingPoints = 1 << 16
)

// Topology is one epoch's immutable routing plan: the shard set with
// per-shard round quotas, the routing mode, and a monotone version so
// status, seal blobs and outbox entries can name the plan they were made
// under. Construct with New; never mutate the fields of a built Topology.
type Topology struct {
	version   uint64
	mode      Mode
	roundSize int
	specs     []ShardSpec
	quotas    []int
	ring      []ringPoint // consistent-hash ring, ModeHashQuota only
}

type ringPoint struct {
	h     uint64
	shard int
}

// New validates and builds a topology. Shard weights default to 1;
// quotas are the largest-remainder apportionment of roundSize over the
// weights with every shard guaranteed at least one slot (hence the shard
// count may not exceed the round size).
func New(version uint64, mode Mode, roundSize int, specs []ShardSpec) (*Topology, error) {
	if mode == 0 {
		mode = ModeSticky
	}
	if mode == modeRetired {
		return nil, errRoundRobinRemoved
	}
	if mode != ModeSticky && mode != ModeHashQuota {
		return nil, fmt.Errorf("route: unknown routing mode %d", mode)
	}
	if roundSize <= 0 {
		return nil, fmt.Errorf("route: round size must be positive, got %d", roundSize)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("route: topology needs at least one shard")
	}
	if len(specs) > MaxShards {
		return nil, fmt.Errorf("route: %d shards exceed the limit %d", len(specs), MaxShards)
	}
	if len(specs) > roundSize {
		return nil, fmt.Errorf("route: %d shards for round size %d (every shard needs a quota of at least one)", len(specs), roundSize)
	}
	norm := make([]ShardSpec, len(specs))
	for i, s := range specs {
		if s.Weight < 0 {
			return nil, fmt.Errorf("route: shard %d has negative weight %d", i, s.Weight)
		}
		if s.Weight == 0 {
			s.Weight = 1
		}
		if len(s.Addr) > maxAddrBytes {
			return nil, fmt.Errorf("route: shard %d address exceeds %d bytes", i, maxAddrBytes)
		}
		norm[i] = s
	}
	for i, s := range norm {
		if s.Addr == "" {
			continue
		}
		// A remote shard's peer proxy is provisioned for exactly its
		// quota per round; sticky routing ignores quotas (placement wins),
		// so it could starve the peer of a round — or flood it — and
		// stall the tier. Remote placement therefore requires the
		// quota-enforcing mode.
		if mode == ModeSticky {
			return nil, fmt.Errorf("route: shard %d is remote (%s) but the sticky mode cannot honour remote quotas; use hash-quota", i, s.Addr)
		}
		for j := 0; j < i; j++ {
			if norm[j].Addr == s.Addr {
				return nil, fmt.Errorf("route: shards %d and %d share address %q", j, i, s.Addr)
			}
		}
	}
	t := &Topology{
		version:   version,
		mode:      mode,
		roundSize: roundSize,
		specs:     norm,
		quotas:    apportion(roundSize, norm),
	}
	if mode == ModeHashQuota {
		t.ring = buildRing(norm)
	}
	return t, nil
}

// apportion splits roundSize over the shards proportionally to weight
// (largest remainder, ties to the lower index), then guarantees every
// shard at least one slot by taking from the largest quotas.
func apportion(roundSize int, specs []ShardSpec) []int {
	totalW := 0
	for _, s := range specs {
		totalW += s.Weight
	}
	quotas := make([]int, len(specs))
	type rem struct {
		frac int // remainder numerator (over totalW)
		i    int
	}
	rems := make([]rem, len(specs))
	assigned := 0
	for i, s := range specs {
		quotas[i] = roundSize * s.Weight / totalW
		rems[i] = rem{frac: roundSize * s.Weight % totalW, i: i}
		assigned += quotas[i]
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; assigned < roundSize; k++ {
		quotas[rems[k%len(rems)].i]++
		assigned++
	}
	// Every shard must be routable at least once per round (a zero-quota
	// shard would buffer nothing and starve); steal from the largest.
	for i := range quotas {
		for quotas[i] == 0 {
			maxI := 0
			for j := range quotas {
				if quotas[j] > quotas[maxI] {
					maxI = j
				}
			}
			if quotas[maxI] <= 1 {
				break // roundSize >= len(specs) makes this unreachable
			}
			quotas[maxI]--
			quotas[i]++
		}
	}
	return quotas
}

// buildRing places ringPointsPerWeight virtual nodes per weight unit per
// shard on a 64-bit hash ring, sorted for binary search.
func buildRing(specs []ShardSpec) []ringPoint {
	total := 0
	for _, s := range specs {
		total += s.Weight * ringPointsPerWeight
	}
	scale := 1.0
	if total > maxRingPoints {
		scale = float64(maxRingPoints) / float64(total)
	}
	var ring []ringPoint
	for i, s := range specs {
		points := int(float64(s.Weight*ringPointsPerWeight) * scale)
		if points < 1 {
			points = 1
		}
		label := s.label(i)
		for v := 0; v < points; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", label, v)
			ring = append(ring, ringPoint{h: h.Sum64(), shard: i})
		}
	}
	sort.Slice(ring, func(a, b int) bool {
		if ring[a].h != ring[b].h {
			return ring[a].h < ring[b].h
		}
		return ring[a].shard < ring[b].shard
	})
	return ring
}

// Version returns the topology's monotone version.
func (t *Topology) Version() uint64 { return t.version }

// Mode returns the routing mode.
func (t *Topology) Mode() Mode { return t.mode }

// RoundSize returns the round size C the quotas apportion.
func (t *Topology) RoundSize() int { return t.roundSize }

// P returns the shard count.
func (t *Topology) P() int { return len(t.specs) }

// Spec returns shard s's spec.
func (t *Topology) Spec(s int) ShardSpec { return t.specs[s] }

// Specs returns a copy of the shard specs.
func (t *Topology) Specs() []ShardSpec {
	out := make([]ShardSpec, len(t.specs))
	copy(out, t.specs)
	return out
}

// Quota returns shard s's per-round update quota.
func (t *Topology) Quota(s int) int { return t.quotas[s] }

// IsRemote reports whether shard s is a remote placement.
func (t *Topology) IsRemote(s int) bool { return t.specs[s].Addr != "" }

// Remotes returns the addresses of every remote shard (in shard order).
func (t *Topology) Remotes() []string {
	var out []string
	for _, s := range t.specs {
		if s.Addr != "" {
			out = append(out, s.Addr)
		}
	}
	return out
}

// State is the mutable per-round routing state a Topology routes against:
// the round-robin cursor and the per-shard load of the open round. The
// caller owns its synchronisation (the proxy mutates it under the same
// mutex that serialises mixing) and resets Load at round close.
type State struct {
	RR   int
	Load []int
}

// NewState returns a fresh State sized for the topology.
func (t *Topology) NewState() *State {
	return &State{Load: make([]int, len(t.specs))}
}

// Route picks the shard for one update and records it in st.Load. A
// client id makes routing deterministic in the sticky and hash-quota
// modes; anonymous updates follow the mode's load-spreading rule.
func (t *Topology) Route(clientID string, st *State) int {
	var s int
	switch t.mode {
	case ModeHashQuota:
		if clientID != "" {
			s = t.ringShard(clientID)
			if st.Load[s] >= t.quotas[s] {
				s = t.leastLoaded(st)
			}
		} else {
			s = t.leastLoaded(st)
		}
	default: // ModeSticky
		if clientID != "" {
			h := fnv.New32a()
			h.Write([]byte(clientID))
			s = int(h.Sum32() % uint32(len(t.specs)))
		} else {
			s = st.RR % len(t.specs)
			st.RR = (s + 1) % len(t.specs)
		}
	}
	st.Load[s]++
	return s
}

// ringShard maps a client id onto the consistent-hash ring.
func (t *Topology) ringShard(clientID string) int {
	h := fnv.New64a()
	h.Write([]byte(clientID))
	key := h.Sum64()
	i := sort.Search(len(t.ring), func(i int) bool { return t.ring[i].h >= key })
	if i == len(t.ring) {
		i = 0
	}
	return t.ring[i].shard
}

// leastLoaded returns the shard with the most relative headroom
// (smallest Load/Quota with capacity left; ties to the lower index),
// falling back to smallest relative load when every quota is exhausted.
func (t *Topology) leastLoaded(st *State) int {
	best, bestWithCap := 0, -1
	for s := range t.specs {
		// Compare Load[s]/Quota[s] < Load[best]/Quota[best] in integers.
		if st.Load[s]*t.quotas[best] < st.Load[best]*t.quotas[s] {
			best = s
		}
		if st.Load[s] < t.quotas[s] && (bestWithCap == -1 ||
			st.Load[s]*t.quotas[bestWithCap] < st.Load[bestWithCap]*t.quotas[s]) {
			bestWithCap = s
		}
	}
	if bestWithCap != -1 {
		return bestWithCap
	}
	return best
}

// Equal reports whether two topologies describe the same routing plan
// (version included).
func (t *Topology) Equal(o *Topology) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.version != o.version || t.mode != o.mode || t.roundSize != o.roundSize || len(t.specs) != len(o.specs) {
		return false
	}
	for i := range t.specs {
		if t.specs[i] != o.specs[i] {
			return false
		}
	}
	return true
}

// Binary topology blob, versioned ("MXTO" v1), embedded opaquely in the
// proxy's sealed tier state (the MXSH seal blob) and surfaced in admin
// status:
//
//	magic     [4]byte "MXTO"
//	blobVer   uint16 (1)
//	version   uint64 topology version
//	mode      uint8
//	roundSize uint32
//	shards    uint32 P
//	per shard: weight uint32, addrLen uint16, addr bytes
const (
	topoMagic    = "MXTO"
	topoBlobVer  = 1
	topoHeadSize = 4 + 2 + 8 + 1 + 4 + 4
)

// Marshal encodes the topology.
func (t *Topology) Marshal() []byte {
	buf := append(make([]byte, 0, topoHeadSize), topoMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, topoBlobVer)
	buf = binary.LittleEndian.AppendUint64(buf, t.version)
	buf = append(buf, byte(t.mode))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.roundSize))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.specs)))
	for _, s := range t.specs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Weight))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.Addr)))
		buf = append(buf, s.Addr...)
	}
	return buf
}

// Parse decodes a Marshal blob by offset arithmetic, re-validating
// through New so a parsed topology is always as trustworthy as a
// constructed one.
func Parse(blob []byte) (*Topology, error) {
	if len(blob) < 4 || string(blob[:4]) != topoMagic {
		return nil, fmt.Errorf("route: bad topology magic %q", blob[:min(len(blob), 4)])
	}
	if len(blob) < topoHeadSize {
		return nil, fmt.Errorf("route: topology blob truncated inside its header")
	}
	if blobVer := binary.LittleEndian.Uint16(blob[4:]); blobVer != topoBlobVer {
		return nil, fmt.Errorf("route: topology blob version %d, want %d", blobVer, topoBlobVer)
	}
	version := binary.LittleEndian.Uint64(blob[6:])
	mode := Mode(blob[14])
	roundSize := binary.LittleEndian.Uint32(blob[15:])
	p := binary.LittleEndian.Uint32(blob[19:])
	if p == 0 || p > MaxShards {
		return nil, fmt.Errorf("route: shard count %d out of range", p)
	}
	off := topoHeadSize
	// Each shard needs at least 6 bytes; reject counts the blob cannot
	// hold before allocating.
	if uint64(p) > uint64(len(blob)-off)/6 {
		return nil, fmt.Errorf("route: shard count %d exceeds blob", p)
	}
	specs := make([]ShardSpec, p)
	for i := range specs {
		if len(blob)-off < 6 {
			return nil, fmt.Errorf("route: topology blob truncated at shard %d", i)
		}
		weight := binary.LittleEndian.Uint32(blob[off:])
		addrLen := int(binary.LittleEndian.Uint16(blob[off+4:]))
		off += 6
		if addrLen > maxAddrBytes || addrLen > len(blob)-off {
			return nil, fmt.Errorf("route: shard %d addr length %d out of range", i, addrLen)
		}
		if weight > uint32(1<<20) {
			return nil, fmt.Errorf("route: shard %d weight %d out of range", i, weight)
		}
		specs[i] = ShardSpec{Addr: string(blob[off : off+addrLen]), Weight: int(weight)}
		off += addrLen
	}
	if off != len(blob) {
		return nil, fmt.Errorf("route: %d trailing bytes after topology", len(blob)-off)
	}
	return New(version, mode, int(roundSize), specs)
}
