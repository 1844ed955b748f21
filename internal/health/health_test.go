package health

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryExpositionRoundtrip(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("mixnn_ingress_updates_total", "Updates accepted at ingress.")
	c.Add(3)
	c.Inc()
	g := r.NewGauge("mixnn_outbox_lane_depth", "Entries queued per delivery lane.",
		Label{"dest", "loop://agg"})
	g.Set(7)
	r.NewGauge("mixnn_outbox_lane_depth", "Entries queued per delivery lane.",
		Label{"dest", `we"ird\lane`}).Set(1)
	h := r.NewHistogram("mixnn_decrypt_us", "Per-update enclave decrypt latency.",
		[]float64{100, 1000, 10000})
	h.Observe(50)
	h.Observe(500)
	h.Observe(50000)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE mixnn_ingress_updates_total counter",
		"mixnn_ingress_updates_total 4",
		`mixnn_outbox_lane_depth{dest="loop://agg"} 7`,
		`mixnn_outbox_lane_depth{dest="we\"ird\\lane"} 1`,
		`mixnn_decrypt_us_bucket{le="100"} 1`,
		`mixnn_decrypt_us_bucket{le="1000"} 2`,
		`mixnn_decrypt_us_bucket{le="+Inf"} 3`,
		"mixnn_decrypt_us_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	fams, err := ValidateExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ValidateExposition on own output: %v", err)
	}
	found := map[string]bool{}
	for _, f := range fams {
		found[f] = true
	}
	for _, want := range []string{"mixnn_ingress_updates_total", "mixnn_outbox_lane_depth", "mixnn_decrypt_us"} {
		if !found[want] {
			t.Errorf("ValidateExposition missed family %q (got %v)", want, fams)
		}
	}
}

func TestRegistryIdempotentAndCounterSet(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("x_total", "x")
	b := r.NewCounter("x_total", "x")
	if a != b {
		t.Fatal("re-registration returned a distinct counter")
	}
	a.Set(10)
	a.Set(4) // regressions ignored: a racing scrape must never see it go back
	if got := b.Value(); got != 10 {
		t.Fatalf("counter after Set(10), Set(4) = %v, want 10", got)
	}
	a.Add(-5) // negative deltas ignored
	if got := b.Value(); got != 10 {
		t.Fatalf("counter after Add(-5) = %v, want 10", got)
	}
}

func TestValidateExpositionRejectsGarbage(t *testing.T) {
	for name, in := range map[string]string{
		"undeclared family": "some_metric 3\n",
		"bad value":         "# TYPE m counter\nm notanumber\n",
		"unknown type":      "# TYPE m wibble\nm 1\n",
		"missing histo sum": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
	} {
		if _, err := ValidateExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ValidateExposition accepted %q", name, in)
		}
	}
}

func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.NewCounter("c_total", "c").Inc()
			r.NewGauge("g", "g", Label{"i", string(rune('a' + i%8))}).Set(float64(i))
			r.NewHistogram("h", "h", []float64{1, 10}).Observe(float64(i % 20))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
			if _, err := ValidateExposition(strings.NewReader(b.String())); err != nil {
				t.Errorf("mid-flight exposition invalid: %v", err)
				return
			}
		}
	}()
	go func() { wg.Wait() }()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestAdmissionZeroConfigAdmitsEverything(t *testing.T) {
	a := NewAdmission(AdmissionConfig{})
	if a.Enabled() {
		t.Fatal("zero config reports Enabled")
	}
	hot := Signals{QueueDepth: 1 << 20, LaneBacklog: 1 << 20, DecryptMicros: 1e9}
	for i := 0; i < 1000; i++ {
		ok, shed, _ := a.Allow("anyone", hot)
		if !ok || shed {
			t.Fatalf("zero-config gate refused (ok=%v shed=%v)", ok, shed)
		}
	}
	var nilGate *Admission
	if ok, _, _ := nilGate.Allow("x", hot); !ok {
		t.Fatal("nil gate refused")
	}
}

func TestAdmissionTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	a := NewAdmission(AdmissionConfig{
		RatePerSec: 10, Burst: 3,
		now: func() time.Time { return now },
	})
	for i := 0; i < 3; i++ {
		ok, shed, _ := a.Allow("s1", Signals{})
		if !ok || shed {
			t.Fatalf("send %d within burst refused", i)
		}
	}
	ok, shed, ra := a.Allow("s1", Signals{})
	if ok || shed {
		t.Fatalf("over-burst send: ok=%v shed=%v, want refused non-shed", ok, shed)
	}
	if ra <= 0 || ra > 150*time.Millisecond {
		t.Fatalf("retryAfter %v, want ~100ms (1 token at 10/s)", ra)
	}
	// Another sender is unaffected.
	if ok, _, _ := a.Allow("s2", Signals{}); !ok {
		t.Fatal("independent sender refused")
	}
	// Refill: 200ms at 10/s = 2 tokens.
	now = now.Add(200 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if ok, _, _ := a.Allow("s1", Signals{}); !ok {
			t.Fatalf("post-refill send %d refused", i)
		}
	}
	if ok, _, _ := a.Allow("s1", Signals{}); ok {
		t.Fatal("third post-refill send admitted, bucket should hold 2")
	}
}

func TestAdmissionShedGate(t *testing.T) {
	a := NewAdmission(AdmissionConfig{ShedQueueDepth: 100})
	if !a.Enabled() {
		t.Fatal("shed-only config reports disabled")
	}
	if ok, _, _ := a.Allow("s", Signals{QueueDepth: 99}); !ok {
		t.Fatal("below-threshold refused")
	}
	ok, shed, ra := a.Allow("s", Signals{QueueDepth: 100})
	if ok || !shed || ra <= 0 {
		t.Fatalf("at-threshold: ok=%v shed=%v ra=%v, want shed refusal with hint", ok, shed, ra)
	}
	// The other signals feed Score and /v1/discover, never the gate.
	if ok, _, _ := a.Allow("s", Signals{LaneBacklog: 1 << 20, DecryptMicros: 6000}); !ok {
		t.Fatal("a signal without a threshold caused shedding")
	}
}

func TestAdmissionSenderBound(t *testing.T) {
	a := NewAdmission(AdmissionConfig{RatePerSec: 1, Burst: 1, MaxSenders: 8})
	for i := 0; i < 64; i++ {
		a.Allow(string(rune('A'+i)), Signals{})
	}
	if got := len(a.buckets); got > 8 {
		t.Fatalf("sender map grew to %d, bound is 8", got)
	}
}

func TestScoreMonotoneAndShedClamp(t *testing.T) {
	idle := Score(Signals{}, false)
	if idle != 1 {
		t.Fatalf("idle score %v, want 1", idle)
	}
	busy := Score(Signals{QueueDepth: 512}, false)
	busier := Score(Signals{QueueDepth: 512, LaneBacklog: 16}, false)
	if !(idle > busy && busy > busier) {
		t.Fatalf("score not monotone: idle=%v busy=%v busier=%v", idle, busy, busier)
	}
	shed := Score(Signals{}, true)
	healthyButLoaded := Score(Signals{QueueDepth: 4096, LaneBacklog: 128, DecryptMicros: 20000}, false)
	if shed >= healthyButLoaded {
		t.Fatalf("shedding peer (%v) must rank below any non-shedding one (%v)", shed, healthyButLoaded)
	}
	if shed <= 0 || math.IsNaN(shed) {
		t.Fatalf("score out of range: %v", shed)
	}
}
