package experiment

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"mixnn/internal/client"
	"mixnn/internal/enclave"
	"mixnn/internal/nn"
	"mixnn/internal/proxy"
)

// PerfResult reproduces the §6.5 system-performance table for one model:
// per-update size and the decomposition of proxy processing time into
// decryption, storage and mixing, plus enclave memory pressure.
type PerfResult struct {
	Model        string
	Participants int
	K            int
	// UpdateBytes is the plaintext size of one encoded update (the
	// paper's "each update consumes 26.9MB inside the enclave").
	UpdateBytes int
	// Mean per-update stage latencies in milliseconds.
	DecryptMillis float64
	StoreMillis   float64
	MixMillis     float64
	ProcessMillis float64
	// EnclavePeakBytes is the peak simulated EPC usage.
	EnclavePeakBytes int
	// PageEvents counts simulated EPC paging events.
	PageEvents int
	// EndToEndMillis is the mean wall-clock time from posting an
	// encrypted update to the proxy acknowledging it (includes upstream
	// forwarding — the paper's "end-to-end latency").
	EndToEndMillis float64
}

// RunSystemPerf stands up a real HTTP aggregation server and MixNN proxy,
// streams `participants` encrypted updates of the given architecture
// through them, and reports the proxy's instrumentation.
func RunSystemPerf(modelName string, arch nn.Arch, participants, k int, seed int64) (PerfResult, error) {
	if participants <= 0 {
		return PerfResult{}, fmt.Errorf("experiment: sysperf requires participants > 0")
	}
	platform, err := enclave.NewPlatform()
	if err != nil {
		return PerfResult{}, err
	}
	encl, err := enclave.New(enclave.Config{CodeIdentity: "mixnn-proxy-sysperf"}, platform)
	if err != nil {
		return PerfResult{}, err
	}

	agg, err := proxy.NewAggServer(arch.New(seed).SnapshotParams(), participants)
	if err != nil {
		return PerfResult{}, err
	}
	aggSrv := httptest.NewServer(agg.Handler())
	defer aggSrv.Close()

	px, err := proxy.NewSharded(proxy.ShardedConfig{Upstream: aggSrv.URL, K: k, RoundSize: participants, Seed: seed}, encl, platform)
	if err != nil {
		return PerfResult{}, err
	}
	defer px.Close()
	pxSrv := httptest.NewServer(px.Handler())
	defer pxSrv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	part, err := client.New(client.Config{Proxies: []string{pxSrv.URL}, Server: aggSrv.URL})
	if err != nil {
		return PerfResult{}, err
	}
	if err := part.Attest(ctx, platform.AttestationPublicKey(), encl.Measurement()); err != nil {
		return PerfResult{}, err
	}

	var totalSend time.Duration
	for i := 0; i < participants; i++ {
		update := arch.New(seed + int64(i) + 1).SnapshotParams()
		start := time.Now()
		if err := part.SendUpdate(ctx, update); err != nil {
			return PerfResult{}, fmt.Errorf("experiment: sysperf update %d: %w", i, err)
		}
		totalSend += time.Since(start)
	}
	// Drain the delivery pipeline so the reported counters are settled.
	if err := px.Flush(ctx); err != nil {
		return PerfResult{}, err
	}

	st := px.Status()
	return PerfResult{
		Model:            modelName,
		Participants:     participants,
		K:                st.Shards[0].K,
		UpdateBytes:      st.UpdateBytes,
		DecryptMillis:    st.DecryptMillis,
		StoreMillis:      st.StoreMillis,
		MixMillis:        st.MixMillis,
		ProcessMillis:    st.ProcessMillis,
		EnclavePeakBytes: st.EnclavePeak,
		PageEvents:       st.EnclavePaging,
		EndToEndMillis:   totalSend.Seconds() * 1000 / float64(participants),
	}, nil
}

// PerfModels returns the two §6.5 model variants: the CIFAR architecture
// (two conv + three FC) and the larger three-conv variant the paper uses
// to show cost grows with model size.
func PerfModels(scale Scale) []struct {
	Name string
	Arch nn.Arch
} {
	dim := 32
	f1, f2, h1, h2 := 8, 16, 64, 32
	if scale == ScaleQuick {
		dim, f1, f2, h1, h2 = 16, 4, 8, 32, 16
	}
	base := nn.ConvNetConfig{
		InC: 3, InH: dim, InW: dim, Classes: 10,
		Filters1: f1, Filters2: f2, Hidden1: h1, Hidden2: h2,
		PoolH1: 2, PoolW1: 2, PoolH2: 2, PoolW2: 2,
	}
	withConv3 := base
	withConv3.Conv3 = f2 * 2
	return []struct {
		Name string
		Arch nn.Arch
	}{
		{"2conv+3fc", nn.NewConvNet("sysperf-2conv", base)},
		{"3conv+3fc", nn.NewConvNet("sysperf-3conv", withConv3)},
	}
}
