package nn

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// handoffCase returns a network and a training set big enough that Fit
// hands its workers a few hundred phases: 200 samples of 40 inputs for a
// 40->33->17->1 network, which has a packed block of 16 rows per layer.
func handoffCase(seed int64) (*Network, [][]float64, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([][]float64, 200)
	targets := make([][]float64, len(inputs))
	for i := range inputs {
		x := make([]float64, 40)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		inputs[i] = x
		targets[i] = []float64{rng.Float64()}
	}
	return NewNetwork([]int{40, 33, 17, 1}, ReLU, Sigmoid, rng), inputs, targets
}

var handoffConfig = TrainConfig{Epochs: 3, BatchSize: 16, LR: 2e-3, Seed: 9}

// TestFitLeavesNoGoroutines checks that Fit's workers are gone once it
// returns, at one worker, at two, and at eight on a host that may have
// fewer CPUs than that (where its waiters park at once).
func TestFitLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	baseline := runtime.NumGoroutine()
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		n, inputs, targets := handoffCase(1)
		if _, err := n.Fit(inputs, targets, handoffConfig); err != nil {
			t.Fatal(err)
		}
		// A worker finishes its last phase just before it returns, so its
		// exit can trail Fit's return by a moment.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("GOMAXPROCS=%d: %d goroutines after Fit, %d before", procs, runtime.NumGoroutine(), baseline)
			}
			runtime.Gosched()
		}
	}
}

// TestConcurrentFitsMatchSerial runs four Fits at once at GOMAXPROCS 2, so
// eight workers share two Ps and a polling waiter often holds a P that
// another Fit's worker needs. Each must finish, with the bits of the same
// Fit run alone.
func TestConcurrentFitsMatchSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const fits = 4
	var serial, concurrent [fits]*Network
	var inputs, targets [fits][][]float64
	var serialMSE, concurrentMSE [fits]float64
	for i := range serial {
		var base *Network
		base, inputs[i], targets[i] = handoffCase(int64(10 + i))
		serial[i], concurrent[i] = cloneNetwork(base), cloneNetwork(base)
		mse, err := serial[i].Fit(inputs[i], targets[i], handoffConfig)
		if err != nil {
			t.Fatal(err)
		}
		serialMSE[i] = mse
	}
	var wg sync.WaitGroup
	for i := range concurrent {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mse, err := concurrent[i].Fit(inputs[i], targets[i], handoffConfig)
			if err != nil {
				t.Error(err)
			}
			concurrentMSE[i] = mse
		}(i)
	}
	wg.Wait()
	for i := range serial {
		if !sameBits(concurrentMSE[i], serialMSE[i]) {
			t.Fatalf("fit %d: MSE %v concurrently, %v alone", i, concurrentMSE[i], serialMSE[i])
		}
		assertSameNetwork(t, concurrent[i], serial[i])
	}
}

// TestWaiterIgnoresLateWakeup parks a waiter whose condition is false and
// wakes it, as a waker of an earlier round can when it finds the waiter
// parked again for a later one. The waiter must look again and park, and
// return only once its condition holds and it is woken for it.
func TestWaiterIgnoresLateWakeup(t *testing.T) {
	wt := newWaiter(runtime.NumCPU() + 1) // more workers than CPUs: parks at once
	var ready atomic.Bool
	returned := make(chan struct{})
	go func() {
		wt.await(ready.Load)
		close(returned)
	}()
	for !wt.parked.Load() {
		runtime.Gosched()
	}
	wt.wakeup()
	for !wt.parked.Load() { // parked again after looking
		select {
		case <-returned:
			t.Fatal("await returned on a wakeup while its condition was false")
		default:
			runtime.Gosched()
		}
	}
	ready.Store(true)
	wt.wakeup()
	<-returned
	if wt.parked.Load() || len(wt.wake) != 0 {
		t.Fatalf("after await returned: parked %v, %d tokens left", wt.parked.Load(), len(wt.wake))
	}
}
