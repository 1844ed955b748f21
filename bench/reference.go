package main

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The reference kernel is how the benchmark reads the speed of the host
// while it measures. The reference box is a 2-vCPU guest of a shared
// host: the same code takes 15-30% more CPU time per update when the
// neighbours are busy (shared execution units, shared cache, shared
// memory) than when they are not, for minutes at a time, and no run
// length averages that away. So every slice of a run sits between two
// readings of a fixed quantum of work, and its time-derived metrics are
// stated at the speed the reference box has when quiet (see hostSpeed).
//
// The quantum is made of what an update's path is made of (AES-GCM seal
// and open, a copy, a float64 accumulate over update-sized buffers) and
// of the standard library only: no change to the repository moves it, so
// it cancels the host and nothing else. Its buffers cycle through a
// working set the size of a loaded tier's heap, far beyond L2: with 8MB
// per core the kernel sat in cache while the tier did not, and missed
// half of what the neighbours did to the tier (README.md has the
// numbers).
const (
	refWorkingSet = 64 << 20 // bytes per core, over the kernel's three buffer rings

	// refNsPerByte is what the reference box takes per buffer byte when
	// its host is quiet, on either clock, and refNsPerPass what a pass
	// costs besides. They only fix the unit: metrics read as microseconds
	// of that box.
	refNsPerByte = 0.518
	refNsPerPass = 230.0
)

// refReadNs is how much quiet-box time one reading takes on each core.
// Only the smoke test lowers it.
var refReadNs = 90e6

type refKernel struct {
	aead          cipher.AEAD
	mem           []byte   // the working set, mapped outside the Go heap
	src, enc, dec [][]byte // rings of update-sized buffers in mem
	vals, acc     []float64
}

// newRefKernel builds a kernel over buffers of one update's size, so
// that its mix of per-byte and per-call work is the workload's. The
// working set is mapped, not allocated: 64MB of live heap per core would
// halve the number of collections the tier under test pays for.
func newRefKernel(bufBytes int) (*refKernel, error) {
	block, err := aes.NewCipher(make([]byte, 32))
	if err != nil {
		return nil, err
	}
	k := &refKernel{vals: make([]float64, bufBytes/8), acc: make([]float64, bufBytes/8)}
	if k.aead, err = cipher.NewGCM(block); err != nil {
		return nil, err
	}
	if k.mem, err = syscall.Mmap(-1, 0, refWorkingSet, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE); err != nil {
		return nil, fmt.Errorf("map the reference kernel's working set: %w", err)
	}
	encBytes := bufBytes + k.aead.Overhead()
	n := refWorkingSet / (2*bufBytes + encBytes)
	k.src, k.enc, k.dec = make([][]byte, n), make([][]byte, n), make([][]byte, n)
	mem := k.mem
	for i := range k.src {
		k.src[i], k.enc[i], k.dec[i] = mem[:bufBytes:bufBytes], mem[bufBytes:bufBytes:bufBytes+encBytes], mem[bufBytes+encBytes:bufBytes+encBytes:2*bufBytes+encBytes]
		mem = mem[2*bufBytes+encBytes:]
		for j := range k.src[i] {
			k.src[i][j] = byte(i + j)
		}
	}
	for i := range k.vals {
		k.vals[i] = float64(i)
	}
	for i := range k.src {
		k.pass(i) // touch every page before the first reading
	}
	return k, nil
}

func (k *refKernel) pass(i int) {
	var nonce [12]byte
	b := i % len(k.src)
	enc := k.aead.Seal(k.enc[b], nonce[:], k.src[b], nil)
	dec, err := k.aead.Open(k.dec[b], nonce[:], enc, nil)
	if err != nil {
		panic("reference kernel: " + err.Error())
	}
	copy(k.src[(b+1)%len(k.src)], dec)
	for j, v := range k.vals {
		k.acc[j] += v
	}
}

// refReading is one reading of the reference kernel: what a pass took on
// the wall clock and on the process CPU clock, as a multiple of what it
// takes on the quiet reference box.
type refReading struct{ wall, cpu float64 }

// reference is one kernel per core, built once per run.
type reference struct {
	kernels   []*refKernel
	passes    int     // per reading and core
	nominalNs float64 // one pass on the quiet reference box
}

func newReference(cores, bufBytes int) (*reference, error) {
	r := &reference{nominalNs: refNsPerPass + refNsPerByte*float64(bufBytes)}
	r.passes = max(int(refReadNs/r.nominalNs), 1)
	for i := 0; i < cores; i++ {
		k, err := newRefKernel(bufBytes)
		if err != nil {
			r.close()
			return nil, err
		}
		r.kernels = append(r.kernels, k)
	}
	return r, nil
}

// close unmaps the kernels' working sets.
func (r *reference) close() {
	for _, k := range r.kernels {
		_ = syscall.Munmap(k.mem) // the mapping is this process's own; nothing to do about a failure
	}
	r.kernels = nil
}

// read runs the quantum on every core at once, as the workloads load
// every core at once, and takes the time until the last core is done:
// a core the host gives late or not at all counts. Call it while nothing
// else runs in the process.
func (r *reference) read() refReading {
	runtime.GC() // a collection still running would share the cores and the CPU clock
	var wg sync.WaitGroup
	cpu0, t0 := processCPU(), time.Now()
	for _, k := range r.kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < r.passes; i++ {
				k.pass(i)
			}
		}()
	}
	wg.Wait()
	wall, cpu := time.Since(t0), processCPU()-cpu0
	quantum := float64(r.passes) * r.nominalNs
	return refReading{wall: float64(wall) / quantum, cpu: float64(cpu) / (quantum * float64(len(r.kernels)))}
}

// hostSpeed is how much slower than the quiet reference box the host ran
// between two readings, on each clock: 1.25 means a pass took a quarter
// longer. A time measured between the readings is divided by it, a rate
// multiplied.
type hostSpeed struct {
	Wall float64 `json:"wall"`
	CPU  float64 `json:"cpu"`
}

func speedBetween(a, b refReading) hostSpeed {
	return hostSpeed{Wall: (a.wall + b.wall) / 2, CPU: (a.cpu + b.cpu) / 2}
}
