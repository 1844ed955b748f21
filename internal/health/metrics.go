// Package health is the MixNN control plane: an operator metrics
// registry in Prometheus text exposition format (no external deps), a
// per-sender admission controller (token-bucket rate limiting plus a
// load-shedding gate over live tier signals), and the health score that
// discovery advertises so participant SDKs can rank failover targets.
//
// The three pieces are deliberately coupled: the same Signals snapshot
// that drives load shedding also feeds the health score served on
// /v1/discover, and both admission outcomes and the raw signals are
// registered as instruments on the metrics registry served on
// /v1/metrics. One observation path, three consumers.
package health

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Label is one key=value pair identifying a sample within a metric
// family (e.g. the destination endpoint of an outbox lane gauge).
type Label struct {
	Key, Value string
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use; the
// constructors are idempotent — asking for an existing (name, labels)
// pair returns the already-registered instrument, so scrape-time
// mirroring code can re-resolve instruments without bookkeeping.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one metric name: its metadata plus every labeled sample.
type family struct {
	name, help, kind string // kind: "counter", "gauge", "histogram"
	samples          map[string]instrument
	order            []string // insertion order of label keys, for stable output
}

type instrument interface {
	// write renders the sample lines for this instrument. name is the
	// family name, labels the rendered {k="v",...} block ("" if none).
	write(w io.Writer, name, labels string) error
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// resolve returns the instrument registered under (name, labels),
// creating it via mk on first use. It panics on a name registered under
// a different type or help string — that is a programming error, not an
// operational condition.
func (r *Registry) resolve(name, help, kind string, labels []Label, mk func() instrument) instrument {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, samples: make(map[string]instrument)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("health: metric %q re-registered as %s, was %s", name, kind, f.kind))
	}
	inst, ok := f.samples[key]
	if !ok {
		inst = mk()
		f.samples[key] = inst
		f.order = append(f.order, key)
	}
	return inst
}

// Counter is a monotonically increasing value. Besides Add/Inc for
// inline instrumentation, Set supports scrape-time mirroring of a
// monotonic total maintained elsewhere (e.g. a proxy status counter):
// the exposition stays a proper counter family while the source of
// truth stays where it was.
type Counter struct {
	bits uint64 // float64 bits, CAS-updated
}

// NewCounter returns the counter registered under name and labels,
// creating it on first use.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	return r.resolve(name, help, "counter", labels, func() instrument { return &Counter{} }).(*Counter)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (v < 0 is ignored — counters are monotonic).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	for {
		old := atomic.LoadUint64(&c.bits)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&c.bits, old, next) {
			return
		}
	}
}

// Set overwrites the counter with an externally-maintained monotonic
// total. Values below the current one are ignored so a racing scrape
// can never observe the counter go backwards.
func (c *Counter) Set(total float64) {
	for {
		old := atomic.LoadUint64(&c.bits)
		if total <= math.Float64frombits(old) {
			return
		}
		if atomic.CompareAndSwapUint64(&c.bits, old, math.Float64bits(total)) {
			return
		}
	}
}

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(atomic.LoadUint64(&c.bits)) }

func (c *Counter) write(w io.Writer, name, labels string) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, fmtFloat(c.Value()))
	return err
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits uint64
}

// NewGauge returns the gauge registered under name and labels, creating
// it on first use.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	return r.resolve(name, help, "gauge", labels, func() instrument { return &Gauge{} }).(*Gauge)
}

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { atomic.StoreUint64(&g.bits, math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(atomic.LoadUint64(&g.bits)) }

func (g *Gauge) write(w io.Writer, name, labels string) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, fmtFloat(g.Value()))
	return err
}

// Histogram counts observations into fixed cumulative buckets. Bounds
// are set at registration and immutable; Observe is lock-free.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf implicit
	counts  []uint64  // len(bounds)+1, last is the +Inf bucket
	sumBits uint64
}

// NewHistogram returns the histogram registered under name and labels,
// creating it with the given ascending bucket upper bounds on first
// use. An empty bounds slice yields a single +Inf bucket.
func (r *Registry) NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.resolve(name, help, "histogram", labels, func() instrument {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
	}).(*Histogram)
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	atomic.AddUint64(&h.counts[i], 1)
	for {
		old := atomic.LoadUint64(&h.sumBits)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&h.sumBits, old, next) {
			return
		}
	}
}

// Mean returns the mean of every observation so far, 0 before the
// first: the exposition's _sum over its _count.
func (h *Histogram) Mean() float64 {
	var n uint64
	for i := range h.counts {
		n += atomic.LoadUint64(&h.counts[i])
	}
	if n == 0 {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&h.sumBits)) / float64(n)
}

func (h *Histogram) write(w io.Writer, name, labels string) error {
	var cum uint64
	for i, bound := range h.bounds {
		cum += atomic.LoadUint64(&h.counts[i])
		if err := writeBucket(w, name, labels, fmtFloat(bound), cum); err != nil {
			return err
		}
	}
	cum += atomic.LoadUint64(&h.counts[len(h.bounds)])
	if err := writeBucket(w, name, labels, "+Inf", cum); err != nil {
		return err
	}
	sum := math.Float64frombits(atomic.LoadUint64(&h.sumBits))
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, fmtFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
	return err
}

func writeBucket(w io.Writer, name, labels, le string, cum uint64) error {
	// A histogram bucket merges the le label into any instrument labels.
	if labels == "" {
		_, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
		return err
	}
	_, err := fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, labels[1:len(labels)-1], le, cum)
	return err
}

// WritePrometheus renders every family in text exposition format,
// sorted by family name, samples in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	type sample struct {
		key  string
		inst instrument
	}
	type snap struct {
		name, help, kind string
		samples          []sample
	}
	// Snapshot families and instrument pointers under the lock (the map
	// itself may grow concurrently); instruments are internally atomic,
	// so rendering them after unlock needs no further synchronization.
	snaps := make([]snap, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		s := snap{name: f.name, help: f.help, kind: f.kind}
		for _, key := range f.order {
			s.samples = append(s.samples, sample{key, f.samples[key]})
		}
		snaps = append(snaps, s)
	}
	r.mu.Unlock()

	for _, s := range snaps {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", s.name, s.help, s.name, s.kind); err != nil {
			return err
		}
		for _, sm := range s.samples {
			if err := sm.inst.write(w, s.name, sm.key); err != nil {
				return err
			}
		}
	}
	return nil
}

// labelKey renders labels as a stable `{k="v",...}` block ("" if none).
// Keys are sorted so the same label set always maps to the same sample.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString("=\"")
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// fmtFloat renders a sample value: integers without a fraction, else
// shortest round-trip form.
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ValidateExposition parses Prometheus text exposition from r and
// returns the metric family names it declares, in order of appearance.
// It fails on structural errors: samples for an undeclared family, a
// TYPE line with an unknown kind, malformed sample lines, or histogram
// families missing their _count/_sum series. It is what the loadgen
// harness and CI smoke use to assert /v1/metrics stays scrapeable.
func ValidateExposition(r io.Reader) ([]string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	kinds := make(map[string]string)
	seenSample := make(map[string]bool)
	var names []string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
			}
			name, kind := fields[2], fields[3]
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, kind)
			}
			if _, dup := kinds[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate TYPE for family %q", lineNo, name)
			}
			kinds[name] = kind
			names = append(names, name)
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		// Sample line: name{labels} value  or  name value.
		cut := strings.IndexAny(line, "{ ")
		if cut <= 0 {
			return nil, fmt.Errorf("line %d: malformed sample %q", lineNo, line)
		}
		sample := line[:cut]
		rest := line[cut:]
		if rest[0] == '{' {
			close := strings.LastIndexByte(rest, '}')
			if close < 0 {
				return nil, fmt.Errorf("line %d: unterminated label block %q", lineNo, line)
			}
			rest = rest[close+1:]
		}
		valStr := strings.TrimSpace(rest)
		// A timestamp may follow the value; the value is the first field.
		if i := strings.IndexByte(valStr, ' '); i >= 0 {
			valStr = valStr[:i]
		}
		if _, err := strconv.ParseFloat(valStr, 64); err != nil {
			return nil, fmt.Errorf("line %d: bad sample value %q: %v", lineNo, valStr, err)
		}
		fam := sample
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(sample, suffix)
			if base != sample && kinds[base] == "histogram" {
				fam = base
				break
			}
		}
		if _, ok := kinds[fam]; !ok {
			return nil, fmt.Errorf("line %d: sample %q for undeclared family", lineNo, sample)
		}
		seenSample[fam+strings.TrimPrefix(sample, fam)] = true
		seenSample[fam] = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, kind := range kinds {
		if kind != "histogram" {
			continue
		}
		if !seenSample[name+"_count"] || !seenSample[name+"_sum"] {
			return nil, fmt.Errorf("histogram family %q missing _count/_sum series", name)
		}
	}
	return names, nil
}
