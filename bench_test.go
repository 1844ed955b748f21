// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6), plus the ablations called out in DESIGN.md §9.
//
// Figure benches run one miniature experiment per iteration and attach the
// headline quantity (accuracy, inference accuracy, neighbour count) via
// b.ReportMetric, so `go test -bench` both times the pipeline and shows
// the reproduced result. See README.md for paper-vs-measured numbers.
package mixnn

import (
	"bytes"
	"context"
	"crypto/aes"
	"crypto/cipher"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mixnn/internal/attack"
	"mixnn/internal/core"
	"mixnn/internal/enclave"
	"mixnn/internal/experiment"
	"mixnn/internal/nn"
	"mixnn/internal/privacy"
	"mixnn/internal/proxy"
	"mixnn/internal/stats"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// benchSpec returns a reduced quick spec so one bench iteration is one
// short federated run.
func benchSpec(b *testing.B, key string, rounds int) experiment.DatasetSpec {
	b.Helper()
	spec, err := experiment.DatasetByKey(key, experiment.ScaleQuick, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec.FL.Rounds = rounds
	spec.AttackEpochs = 2
	spec.AuxPerClass = 48
	return spec
}

// --- Figure 5: utility per arm -------------------------------------------

func BenchmarkFig5Utility(b *testing.B) {
	for _, dataset := range []string{"cifar10", "motionsense", "mobiact", "lfw"} {
		for _, arm := range experiment.Arms() {
			b.Run(fmt.Sprintf("%s/%s", dataset, arm.Key), func(b *testing.B) {
				spec := benchSpec(b, dataset, 2)
				var acc float64
				for i := 0; i < b.N; i++ {
					res, err := experiment.RunUtility(spec, arm, int64(i)+1)
					if err != nil {
						b.Fatal(err)
					}
					acc = res.FinalAccuracy()
				}
				b.ReportMetric(acc, "accuracy")
			})
		}
	}
}

// --- Figure 6: per-participant accuracy CDF ------------------------------

func BenchmarkFig6AccuracyCDF(b *testing.B) {
	spec := benchSpec(b, "cifar10", 2)
	var median float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunUtility(spec, experiment.Arms()[0], int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		per := res.PerClientAt(spec.FL.Rounds - 1)
		_ = stats.CDF(per)
		median = stats.Percentile(per, 50)
	}
	b.ReportMetric(median, "median-accuracy")
}

// --- Figure 7: active ∇Sim inference per arm ------------------------------

func BenchmarkFig7Inference(b *testing.B) {
	for _, dataset := range []string{"cifar10", "motionsense", "mobiact", "lfw"} {
		for _, arm := range experiment.Arms() {
			b.Run(fmt.Sprintf("%s/%s", dataset, arm.Key), func(b *testing.B) {
				spec := benchSpec(b, dataset, 2)
				var acc float64
				for i := 0; i < b.N; i++ {
					res, err := experiment.RunInference(spec, arm, true, 1, int64(i)+1)
					if err != nil {
						b.Fatal(err)
					}
					acc = res.FinalAccuracy()
				}
				b.ReportMetric(acc, "inference-accuracy")
			})
		}
	}
}

// --- Figure 8: background-knowledge ratio sweep ---------------------------

func BenchmarkFig8Background(b *testing.B) {
	for _, ratio := range []float64{0.2, 1.0} {
		b.Run(fmt.Sprintf("ratio=%.1f", ratio), func(b *testing.B) {
			spec := benchSpec(b, "cifar10", 2)
			var acc float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunInference(spec, experiment.Arms()[0], true, ratio, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.FinalAccuracy()
			}
			b.ReportMetric(acc, "inference-accuracy")
		})
	}
}

// --- Figure 9: close-neighbour CDF ----------------------------------------

func BenchmarkFig9Neighbours(b *testing.B) {
	for _, dataset := range []string{"cifar10", "motionsense"} {
		b.Run(dataset, func(b *testing.B) {
			spec := benchSpec(b, dataset, 1)
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunNeighbours(spec, experiment.DefaultNeighbourRadius, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				total := 0
				for _, n := range res.Neighbours {
					total += n
				}
				mean = float64(total) / float64(len(res.Neighbours))
			}
			b.ReportMetric(mean, "mean-neighbours")
		})
	}
}

// --- §6.5 system performance ----------------------------------------------

// BenchmarkProxyDecrypt isolates the enclave decryption of one
// CIFAR-model-sized update — the dominant §6.5 cost (0.17 of 0.19 s in the
// paper's setup).
func BenchmarkProxyDecrypt(b *testing.B) {
	platform, err := enclave.NewPlatform()
	if err != nil {
		b.Fatal(err)
	}
	encl, err := enclave.New(enclave.Config{}, platform)
	if err != nil {
		b.Fatal(err)
	}
	update := experiment.PerfModels(experiment.ScaleQuick)[0].Arch.New(1).SnapshotParams()
	raw, err := nn.EncodeParamSet(update)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := enclave.Encrypt(encl.PublicKey(), raw)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encl.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

// recordCryptoArm reports one ingress-crypto arm's steady-state cost; CI
// gates on the ns/update column.
func recordCryptoArm(b *testing.B, elapsed time.Duration) {
	b.Helper()
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "ns/update")
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "updates/sec")
}

// BenchmarkProxyCrypto measures the full per-update crypto round trip —
// sender wrap plus enclave decrypt, both in-loop. The establish arm opens
// a fresh session per update (enclave.Encrypt: the sender's ephemeral
// key draw and X25519 agreement, the enclave's agreement, HKDF and one
// AES-GCM pass each side), the cost every session start pays once. The
// session arm is the steady state of a kept session, one AES-GCM pass
// each side. The gcm-floor arm is the raw seal+open of the same payload
// with no framing: the lower bound the session arm should sit within a
// small constant factor of, and the establish arm within a larger one.
func BenchmarkProxyCrypto(b *testing.B) {
	platform, err := enclave.NewPlatform()
	if err != nil {
		b.Fatal(err)
	}
	encl, err := enclave.New(enclave.Config{}, platform)
	if err != nil {
		b.Fatal(err)
	}
	model := experiment.PerfModels(experiment.ScaleQuick)[0]
	raw, err := nn.EncodeParamSet(model.Arch.New(1).SnapshotParams())
	if err != nil {
		b.Fatal(err)
	}

	b.Run("establish", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		start := time.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ct, err := enclave.Encrypt(encl.PublicKey(), raw)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := encl.Decrypt(ct); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		recordCryptoArm(b, time.Since(start))
	})

	b.Run("session", func(b *testing.B) {
		sess, err := enclave.NewSession(encl.PublicKey())
		if err != nil {
			b.Fatal(err)
		}
		est, err := sess.Wrap(raw) // one-time handshake, amortised away
		if err != nil {
			b.Fatal(err)
		}
		if _, err := encl.Decrypt(est); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(raw)))
		start := time.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ct, err := sess.Wrap(raw)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := encl.Decrypt(ct); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		recordCryptoArm(b, time.Since(start))
	})

	b.Run("gcm-floor", func(b *testing.B) {
		key := make([]byte, 32)
		if _, err := crand.Read(key); err != nil {
			b.Fatal(err)
		}
		blk, err := aes.NewCipher(key)
		if err != nil {
			b.Fatal(err)
		}
		aead, err := cipher.NewGCM(blk)
		if err != nil {
			b.Fatal(err)
		}
		nonce := make([]byte, aead.NonceSize())
		sealBuf := make([]byte, 0, len(raw)+aead.Overhead())
		openBuf := make([]byte, 0, len(raw))
		b.SetBytes(int64(len(raw)))
		start := time.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			binary.LittleEndian.PutUint64(nonce, uint64(i)+1)
			ct := aead.Seal(sealBuf[:0], nonce, raw, nil)
			if _, err := aead.Open(openBuf[:0], nonce, ct, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		recordCryptoArm(b, time.Since(start))
	})
}

// BenchmarkProxyStore isolates decode-and-buffer (the §6.5 "storage" step).
func BenchmarkProxyStore(b *testing.B) {
	update := experiment.PerfModels(experiment.ScaleQuick)[0].Arch.New(1).SnapshotParams()
	raw, err := nn.EncodeParamSet(update)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nn.DecodeParamSet(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProxyMix isolates the mixing operation (the §6.5 0.03 s step).
func BenchmarkProxyMix(b *testing.B) {
	arch := experiment.PerfModels(experiment.ScaleQuick)[0].Arch
	updates := make([]nn.ParamSet, 8)
	for i := range updates {
		updates[i] = arch.New(int64(i)).SnapshotParams()
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BatchMix(updates, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProxyMixSharded scales the mixing step across shard counts:
// one round of C updates through the sharded stream-mixer tier for
// P ∈ {1, 2, 4}. The per-layer work per shard shrinks with P, which is
// the horizontal-scaling claim of the sharded deployment.
func BenchmarkProxyMixSharded(b *testing.B) {
	arch := experiment.PerfModels(experiment.ScaleQuick)[0].Arch
	updates := make([]nn.ParamSet, 16)
	for i := range updates {
		updates[i] = arch.New(int64(i)).SnapshotParams()
	}
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", p), func(b *testing.B) {
			tr := core.ShardedStreamTransform{K: 4, Shards: p}
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Apply(updates, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProxyEndToEnd reproduces the §6.5 table: encrypted updates
// through a real HTTP proxy into a real aggregation server, for both model
// sizes.
func BenchmarkProxyEndToEnd(b *testing.B) {
	for _, m := range experiment.PerfModels(experiment.ScaleQuick) {
		b.Run(m.Name, func(b *testing.B) {
			var res experiment.PerfResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiment.RunSystemPerf(m.Name, m.Arch, 4, 2, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.UpdateBytes)/1024, "update-KB")
			b.ReportMetric(res.DecryptMillis, "decrypt-ms")
			b.ReportMetric(res.MixMillis, "mix-ms")
			b.ReportMetric(res.EndToEndMillis, "e2e-ms")
		})
	}
}

// --- Ablations (DESIGN.md §9) ----------------------------------------------

// BenchmarkAblationGranularity compares mixing granularities: per-layer
// (paper), per-tensor (finer) and whole-model (sender unlinking only) by
// the inference accuracy they leave to an active ∇Sim.
func BenchmarkAblationGranularity(b *testing.B) {
	for _, g := range []core.Granularity{core.GranularityLayer, core.GranularityTensor, core.GranularityModel} {
		b.Run(g.String(), func(b *testing.B) {
			spec := benchSpec(b, "cifar10", 2)
			arm := experiment.Arm{Key: "mixnn-" + g.String(), Transform: core.Transform{Granularity: g}}
			var acc float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunInference(spec, arm, true, 1, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.FinalAccuracy()
			}
			b.ReportMetric(acc, "inference-accuracy")
		})
	}
}

// BenchmarkAblationBufferK sweeps the streaming mixer's list capacity k.
func BenchmarkAblationBufferK(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			spec := benchSpec(b, "cifar10", 2)
			arm := experiment.StreamArm(k)
			var acc float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunInference(spec, arm, true, 1, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.FinalAccuracy()
			}
			b.ReportMetric(acc, "inference-accuracy")
		})
	}
}

// BenchmarkAblationActivePassive compares the two ∇Sim variants on the
// unprotected pipeline.
func BenchmarkAblationActivePassive(b *testing.B) {
	for _, active := range []bool{true, false} {
		name := "passive"
		if active {
			name = "active"
		}
		b.Run(name, func(b *testing.B) {
			spec := benchSpec(b, "cifar10", 2)
			var acc float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunInference(spec, experiment.Arms()[0], active, 1, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.FinalAccuracy()
			}
			b.ReportMetric(acc, "inference-accuracy")
		})
	}
}

// BenchmarkAblationNoiseScale sweeps the noisy baseline's sigma, the
// trade-off MixNN avoids.
func BenchmarkAblationNoiseScale(b *testing.B) {
	for _, sigma := range []float64{0.01, 0.1, 1.0} {
		b.Run(fmt.Sprintf("sigma=%.2f", sigma), func(b *testing.B) {
			spec := benchSpec(b, "cifar10", 2)
			arm := experiment.Arm{Key: "noisy", Transform: privacy.NoisyTransform{Sigma: sigma}}
			var acc float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunUtility(spec, arm, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.FinalAccuracy()
			}
			b.ReportMetric(acc, "accuracy")
		})
	}
}

// --- Micro-benchmarks of the core pipeline stages --------------------------

// recordMixArm reports one hot-path arm's steady-state cost; CI gates on
// the allocs/update column.
func recordMixArm(b *testing.B, elapsed time.Duration, mallocs uint64) {
	b.Helper()
	b.ReportMetric(float64(mallocs)/float64(b.N), "allocs/update")
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "updates/sec")
}

// mixRoundSize is the per-mixer round the hot-path benchmarks cycle:
// every mixRoundSize updates the round closes — drain, encode for the
// outbox, swap to a fresh mixer (recycling the slab in slab mode) —
// exactly the steady-state epoch cycle of the sharded proxy.
const mixRoundSize = 64

// BenchmarkStreamMixerAdd measures the §6.5 store+mix hot path per
// storage mode over the REAL per-update cycle: a fresh wire buffer (the
// decrypt output each request materialises), AddWire into the mixer, and
// at each round close the drain plus the outbox-side re-encode of every
// mixed update. The legacy arm is the pre-slab pipeline (zero-copy
// decode aliasing the buffer, per-emission allocations, EncodeParamSet
// per outgoing update); the slab arm decodes into pooled slab rows and
// re-encodes through the skeleton fast path into a reused buffer.
func BenchmarkStreamMixerAdd(b *testing.B) {
	model := experiment.PerfModels(experiment.ScaleQuick)[0]
	update := model.Arch.New(1).SnapshotParams()
	wire, err := nn.EncodeParamSet(update)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"legacy", "slab"} {
		b.Run(mode, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			pool := core.NewSlabPool()
			newMixer := func() *core.StreamMixer {
				var m *core.StreamMixer
				var err error
				if mode == "slab" {
					m, err = core.NewStreamMixerSlab(8, rng, pool)
				} else {
					m, err = core.NewStreamMixer(8, rng)
				}
				if err != nil {
					b.Fatal(err)
				}
				return m
			}
			closeRound := func(m *core.StreamMixer, emitted []nn.ParamSet, encBuf []byte) []byte {
				emitted = append(emitted, m.Drain()...)
				for _, ps := range emitted {
					if mode == "slab" {
						encBuf = encBuf[:0]
						var err error
						if encBuf, err = nn.AppendParamSet(encBuf, ps); err != nil {
							b.Fatal(err)
						}
					} else {
						if _, err := nn.EncodeParamSet(ps); err != nil {
							b.Fatal(err)
						}
					}
				}
				m.ReleaseSlab()
				return encBuf
			}
			m := newMixer()
			emitted := make([]nn.ParamSet, 0, mixRoundSize)
			encBuf := make([]byte, 0, len(wire))
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The decrypt output is a fresh buffer per request in both
				// modes; the slab arm drops it immediately after the copy,
				// the legacy arm's views pin it until the round closes.
				buf := make([]byte, len(wire))
				copy(buf, wire)
				out, err := m.AddWire(buf)
				if err != nil {
					b.Fatal(err)
				}
				if out != nil {
					emitted = append(emitted, *out)
				}
				if (i+1)%mixRoundSize == 0 {
					encBuf = closeRound(m, emitted, encBuf)
					emitted = emitted[:0]
					m = newMixer()
				}
			}
			b.StopTimer()
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms1)
			recordMixArm(b, elapsed, ms1.Mallocs-ms0.Mallocs)
		})
	}
}

// BenchmarkProxyMixWire is the sharded wire-ingress benchmark: one round
// of raw encoded updates round-robined across P slab-backed shards (the
// proxy's ingest path minus crypto), including each round's drain +
// outbox re-encode — what a sharded proxy runs per update.
func BenchmarkProxyMixWire(b *testing.B) {
	model := experiment.PerfModels(experiment.ScaleQuick)[0]
	update := model.Arch.New(1).SnapshotParams()
	wire, err := nn.EncodeParamSet(update)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d/slab", p), func(b *testing.B) {
			pool := core.NewSlabPool()
			newTier := func(epoch int64) []*core.StreamMixer {
				tier := make([]*core.StreamMixer, p)
				for s := range tier {
					rng := rand.New(rand.NewSource(epoch*int64(p) + int64(s)))
					var err error
					if tier[s], err = core.NewStreamMixerSlab(8, rng, pool); err != nil {
						b.Fatal(err)
					}
				}
				return tier
			}
			encode := func(ps nn.ParamSet, encBuf []byte) []byte {
				encBuf, err := nn.AppendParamSet(encBuf[:0], ps)
				if err != nil {
					b.Fatal(err)
				}
				return encBuf
			}
			tier := newTier(0)
			epoch := int64(0)
			encBuf := make([]byte, 0, len(wire))
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf := make([]byte, len(wire))
				copy(buf, wire)
				out, err := tier[i%p].AddWire(buf)
				if err != nil {
					b.Fatal(err)
				}
				if out != nil {
					encBuf = encode(*out, encBuf)
				}
				if (i+1)%mixRoundSize == 0 {
					for _, m := range tier {
						for _, ps := range m.Drain() {
							encBuf = encode(ps, encBuf)
						}
						m.ReleaseSlab()
					}
					epoch++
					tier = newTier(epoch)
				}
			}
			b.StopTimer()
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms1)
			recordMixArm(b, elapsed, ms1.Mallocs-ms0.Mallocs)
		})
	}
}

// BenchmarkDeliveryLeg measures what one update costs in memory between
// its round's close and the aggregate: conv model, a front proxy closing
// rounds of 64 into an AggServer over Loopback. One iteration is one
// round; the window opens just before the round-closing update is handed
// to the front (packageRound runs inside that call) and closes when the
// aggregator has absorbed the round — drain, encode into the outbox
// entry, queue, parse, deliver, absorb into slab rows, aggregate. The
// other 63 updates are ingested outside the window. The counters are the
// process's, so the dispatcher's and aggregator's goroutines are in.
//
// x-wire is bytes allocated per update as a multiple of the update's wire
// size, and CI holds it under 0.25: the entry is built in the spare an
// acked entry left behind (outbox.Queue.NewEntry), and every other stage
// of the leg works in place or out of a pool — 0.036 when the spares
// landed, 1.04 when every round allocated its entry. A stage that starts
// copying the round again shows up as +1.0.
func BenchmarkDeliveryLeg(b *testing.B) {
	const round = 64
	arch := experiment.PerfModels(experiment.ScaleQuick)[0].Arch
	initial := arch.New(1).SnapshotParams()
	platform, err := enclave.NewPlatform()
	if err != nil {
		b.Fatal(err)
	}
	encl, err := enclave.New(enclave.Config{}, platform)
	if err != nil {
		b.Fatal(err)
	}
	agg, err := proxy.NewAggServer(initial, round)
	if err != nil {
		b.Fatal(err)
	}
	lb := transport.NewLoopback()
	defer lb.Close()
	lb.Register("loop://agg", agg)
	front, err := proxy.NewSharded(proxy.ShardedConfig{
		Upstream: "loop://agg", K: 8, RoundSize: round, Shards: 2, Seed: 1, Transport: lb,
	}, encl, platform)
	if err != nil {
		b.Fatal(err)
	}
	defer front.Close()
	sess, err := enclave.NewSession(encl.PublicKey())
	if err != nil {
		b.Fatal(err)
	}
	raws := make([][]byte, 8)
	for i := range raws {
		if raws[i], err = nn.EncodeParamSet(arch.New(int64(i + 2)).SnapshotParams()); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	send := func(i int) {
		ct, err := sess.Wrap(raws[i%len(raws)])
		if err == nil {
			_, err = front.HandleUpdate(ctx, transport.UpdateRequest{Body: ct})
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	var bytes, mallocs uint64
	oneRound := func() {
		for i := 0; i < round-1; i++ {
			send(i)
		}
		want := agg.Round() + 1
		last, err := sess.Wrap(raws[0])
		if err != nil {
			b.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		if _, err := front.HandleUpdate(ctx, transport.UpdateRequest{Body: last}); err != nil {
			b.Fatal(err)
		}
		for deadline := time.Now().Add(30 * time.Second); agg.Round() < want; {
			if time.Now().After(deadline) {
				b.Fatal("round never reached the aggregator")
			}
			time.Sleep(20 * time.Microsecond)
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		bytes += m1.TotalAlloc - m0.TotalAlloc
		mallocs += m1.Mallocs - m0.Mallocs
	}
	b.StopTimer()
	for i := 0; i < 3; i++ { // slab pools, layouts, the delivery lane
		oneRound()
	}
	bytes, mallocs = 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oneRound()
	}
	updates := float64(b.N * round)
	b.ReportMetric(float64(bytes)/updates, "B/update")
	b.ReportMetric(float64(mallocs)/updates, "allocs/update")
	b.ReportMetric(float64(bytes)/updates/float64(len(raws[0])), "x-wire")
}

// countingSink is a plaintext upstream that accepts every batch and
// counts them.
type countingSink struct {
	transport.Server
	batches atomic.Int64
}

func (s *countingSink) HandleBatch(context.Context, transport.BatchRequest) (transport.Receipt, error) {
	s.batches.Add(1)
	return transport.Receipt{Shard: -1}, nil
}

// BenchmarkHopIngress is the ceiling of the hop leg, beside
// BenchmarkDeliveryLeg's for the delivery leg: what a relay proxy
// allocates per update between a wrapped /v1/batch body arriving over
// Loopback and the mixed round leaving for its plaintext upstream —
// decrypt into the pooled plaintext, check every item against the carried
// layout, file into slab rows, close the round (fresh mixers, fresh
// streams), drain into the outbox entry, deliver. One iteration is one
// batch of one round; the sender's wrap is outside the window.
//
// The conv arm (round 64) is gated on bytes: x-wire — bytes allocated per
// update over the update's wire size — must stay under 0.25. The outbox
// entry the round close writes is built in an acked entry's spare, as on
// the delivery leg (0.031 when the spares landed, 1.04 before); a stage
// that copies the batch again (an unpooled plaintext, per-item trees with
// their misaligned-tensor copies) shows up as +1.0 or more. What is left
// is the plaintext pool missing after a GC cycle or two (a 2.7MB buffer;
// the sender's wrap allocates as much again between windows). Both arms
// are gated on allocs/update at 1.5x what this path measured when it
// landed (parent → change, 8 runs each, Go 1.24, 2 cores; the
// tree-building ingress read the same on every run):
//
//	mlp  round 16: 25.75 → 3.69 allocs/update, 5.92 → 2.03 x-wire
//	conv round 64: 52.0  → 1.27 allocs/update, 3.06–3.12 → 1.09–1.15 x-wire
func BenchmarkHopIngress(b *testing.B) {
	arms := []struct {
		name      string
		arch      nn.Arch
		round     int
		maxXWire  float64 // 0 = recorded, not gated
		maxAllocs float64
	}{
		{"mlp", nn.NewMLP("net", 4, []int{6}, 2), 16, 0, 1.5 * 3.69},
		{"conv", experiment.PerfModels(experiment.ScaleQuick)[0].Arch, 64, 0.25, 1.5 * 1.27},
	}
	platform, err := enclave.NewPlatform()
	if err != nil {
		b.Fatal(err)
	}
	encl, err := enclave.New(enclave.Config{}, platform)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			lb := transport.NewLoopback()
			defer lb.Close()
			sink := &countingSink{}
			lb.Register("loop://sink", sink)
			relay, err := proxy.NewSharded(proxy.ShardedConfig{
				Upstream: "loop://sink", K: 4, RoundSize: arm.round, Shards: 1, Seed: 1, Transport: lb,
			}, encl, platform)
			if err != nil {
				b.Fatal(err)
			}
			defer relay.Close()
			lb.Register("loop://relay", relay)
			sess, err := enclave.NewSession(encl.PublicKey())
			if err != nil {
				b.Fatal(err)
			}
			items := make([][]byte, arm.round)
			for i := range items {
				if items[i], err = nn.EncodeParamSet(arm.arch.New(int64(i + 2)).SnapshotParams()); err != nil {
					b.Fatal(err)
				}
			}
			plain, err := wire.BatchEnvelope{Updates: items}.Encode()
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			var bytes, mallocs uint64
			oneBatch := func() {
				body, err := sess.Wrap(plain)
				if err != nil {
					b.Fatal(err)
				}
				want := sink.batches.Load() + 1
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				b.StartTimer()
				if _, err := lb.SendBatch(ctx, "loop://relay", transport.BatchRequest{Body: body, Hop: 1}); err != nil {
					b.Fatal(err)
				}
				for deadline := time.Now().Add(30 * time.Second); sink.batches.Load() < want; {
					if time.Now().After(deadline) {
						b.Fatal("round never left the relay")
					}
					time.Sleep(20 * time.Microsecond)
				}
				b.StopTimer()
				runtime.ReadMemStats(&m1)
				bytes += m1.TotalAlloc - m0.TotalAlloc
				mallocs += m1.Mallocs - m0.Mallocs
			}
			b.StopTimer()
			for i := 0; i < 3; i++ { // plaintext and slab pools, the layout, the delivery lane
				oneBatch()
			}
			bytes, mallocs = 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				oneBatch()
			}
			updates := float64(b.N * arm.round)
			xwire := float64(bytes) / updates / float64(len(items[0]))
			allocs := float64(mallocs) / updates
			b.ReportMetric(float64(bytes)/updates, "B/update")
			b.ReportMetric(allocs, "allocs/update")
			b.ReportMetric(xwire, "x-wire")
			if b.N < 20 {
				return // too few rounds to tell a pool miss from a copy
			}
			if arm.maxXWire > 0 && xwire > arm.maxXWire {
				b.Fatalf("hop leg allocates %.2fx the wire size per update, above the %.2fx ceiling", xwire, arm.maxXWire)
			}
			if allocs > arm.maxAllocs {
				b.Fatalf("hop leg makes %.1f allocations per update, above the %.1f ceiling", allocs, arm.maxAllocs)
			}
		})
	}
}

// noopIngress accepts every update and batch untouched: what is left of
// a request once the tier's own work is taken out.
type noopIngress struct{ transport.Server }

func (noopIngress) HandleUpdate(context.Context, transport.UpdateRequest) (transport.Receipt, error) {
	return transport.Receipt{Shard: -1}, nil
}
func (noopIngress) HandleBatch(context.Context, transport.BatchRequest) (transport.Receipt, error) {
	return transport.Receipt{Shard: -1}, nil
}

// BenchmarkHTTPIngress is the byte ceiling of the HTTP edge, beside
// BenchmarkDeliveryLeg's for the delivery leg: what transport.NewHandler
// allocates to get one request body from the connection to the Server,
// for a single conv update (42,000 bytes) and for a round of 64 of them
// in one /v1/batch (2.7MB).
//
// The direct arms drive the handler itself (httptest.NewRecorder, a
// request with its Content-Length set, a Server that does nothing) and
// are gated: in steady state the body is read into a leased buffer, so
// bytes allocated per request must not scale with the body — at most
// 4KB at either size, which is the recorder and the request. Reading
// with io.ReadAll cost ~200KB and ~13MB. The server arms put a real
// connection and transport.HTTP in front, and are gated at 12KB per
// request at either size: net/http's own headers, contexts and
// connection state on both sides, ~7KB. The client writes the body from
// the sender's bytes; when net/http copied it through a fresh 32KB
// buffer per request, these arms read ~40KB.
func BenchmarkHTTPIngress(b *testing.B) {
	const round, ceiling, serverCeiling = 64, 4 << 10, 12 << 10
	update, err := nn.EncodeParamSet(experiment.PerfModels(experiment.ScaleQuick)[0].Arch.New(1).SnapshotParams())
	if err != nil {
		b.Fatal(err)
	}
	env := wire.BatchEnvelope{Updates: make([][]byte, round)}
	for i := range env.Updates {
		env.Updates[i] = update
	}
	batch, err := env.Encode()
	if err != nil {
		b.Fatal(err)
	}
	h := transport.NewHandler(noopIngress{})
	srv := httptest.NewServer(h)
	defer srv.Close()
	tr := transport.NewHTTP(srv.Client())
	ctx := context.Background()

	// measure reports the bytes and allocations of one call to post in
	// steady state (the first calls size the leased buffer).
	measure := func(b *testing.B, post func()) float64 {
		for i := 0; i < 3; i++ {
			post()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post()
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		perReq := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(b.N)
		b.ReportMetric(perReq, "B/req")
		b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "allocs/req")
		return perReq
	}
	for _, arm := range []struct {
		name, path string
		body       []byte
		send       func() error
	}{
		{"update", "/v1/update", update, func() error {
			_, err := tr.SendUpdate(ctx, srv.URL, transport.UpdateRequest{Body: update})
			return err
		}},
		{"batch", "/v1/batch", batch, func() error {
			_, err := tr.SendBatch(ctx, srv.URL, transport.BatchRequest{Body: batch, ID: "bench"})
			return err
		}},
	} {
		b.Run("direct/"+arm.name, func(b *testing.B) {
			b.SetBytes(int64(len(arm.body)))
			perReq := measure(b, func() {
				req, err := http.NewRequest(http.MethodPost, arm.path, bytes.NewReader(arm.body)) // sets ContentLength
				if err != nil {
					b.Fatal(err)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusAccepted {
					b.Fatalf("%s answered %d", arm.path, rec.Code)
				}
			})
			if perReq > ceiling {
				b.Fatalf("the handler allocates %.0f bytes per %d-byte %s request, above the %d-byte ceiling: the body is being copied again", perReq, len(arm.body), arm.path, ceiling)
			}
		})
		b.Run("server/"+arm.name, func(b *testing.B) {
			b.SetBytes(int64(len(arm.body)))
			perReq := measure(b, func() {
				if err := arm.send(); err != nil {
					b.Fatal(err)
				}
			})
			if perReq > serverCeiling {
				b.Fatalf("a %d-byte %s request over HTTP allocates %.0f bytes, above the %d-byte ceiling: a body is being copied on its way", len(arm.body), arm.path, perReq, serverCeiling)
			}
		})
	}
}

func BenchmarkLocalTraining(b *testing.B) {
	spec := benchSpec(b, "cifar10", 1)
	sim, _, err := experiment.BuildFederation(spec, experiment.Arms()[0], 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunRound(i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttackReferenceTraining(b *testing.B) {
	spec := benchSpec(b, "cifar10", 1)
	adv, err := attack.New(attack.Config{
		Arch:        spec.Arch,
		Source:      spec.Source,
		AuxPerClass: 48,
		Epochs:      1,
		BatchSize:   16,
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = adv
	sim, attrs, err := experiment.BuildFederation(spec, experiment.Arms()[0], 1)
	if err != nil {
		b.Fatal(err)
	}
	sim.Observer = adv
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunRound(i); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := adv.Accuracy(attrs); err != nil {
		b.Fatal(err)
	}
}
