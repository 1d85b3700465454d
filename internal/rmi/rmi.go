package rmi

import (
	"fmt"
	"math"
	"math/rand"

	"lafdbscan/internal/nn"
)

// Config controls the index shape and training.
type Config struct {
	// StageCounts is the number of models per stage, top to bottom.
	// The paper uses {1, 2, 4}.
	StageCounts []int
	// Hidden is the hidden-layer widths of every model.
	// The paper uses {512, 512, 256, 128}; the default experiment preset
	// uses {64, 64, 32, 16} (a laptop-friendly substitution; the shape of
	// the results, not absolute seconds, is the reproduction target).
	Hidden []int
	// Epochs and BatchSize configure each model's training run.
	Epochs    int
	BatchSize int
	// LR is the Adam learning rate; 0 selects nn's default.
	LR float64
	// Seed makes training reproducible.
	Seed int64
}

// DefaultConfig is the fast preset used by tests and the default harness.
func DefaultConfig() Config {
	return Config{
		StageCounts: []int{1, 2, 4},
		Hidden:      []int{64, 64, 32, 16},
		Epochs:      30,
		BatchSize:   64,
		LR:          2e-3,
	}
}

// PaperConfig is the paper's exact architecture: RMI 1/2/4 with hidden
// widths 512-512-256-128, 200 epochs, batch size 512. Training it is slow
// in pure Go; use it when reproducing at full fidelity.
func PaperConfig() Config {
	return Config{
		StageCounts: []int{1, 2, 4},
		Hidden:      []int{512, 512, 256, 128},
		Epochs:      200,
		BatchSize:   512,
		LR:          1e-3,
	}
}

// Example is one training pair: a query embedding, a distance threshold and
// the exact neighbor count at that threshold.
type Example struct {
	Vector []float32
	Radius float64
	Count  int
}

// RMI is a trained recursive model index.
type RMI struct {
	cfg    Config
	inDim  int // embedding dim + 1
	logN   float64
	stages [][]*nn.Network
	// scratch per network for single-threaded prediction; concurrent users
	// should call EstimateWith with their own Scratch.
	scratch []*nn.Scratch
}

// Scratch holds per-goroutine prediction buffers.
type Scratch struct {
	buf  []float64
	nets []*nn.Scratch
}

// NewScratch allocates prediction scratch for r.
func (r *RMI) NewScratch() *Scratch {
	s := &Scratch{buf: make([]float64, r.inDim)}
	for _, stage := range r.stages {
		for _, net := range stage {
			s.nets = append(s.nets, nn.NewScratch(net))
		}
	}
	return s
}

// Train fits an RMI on the examples. n is the size of the reference set the
// counts were computed against (used for target normalization).
func Train(examples []Example, n int, cfg Config) (*RMI, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("rmi: no training examples")
	}
	if len(cfg.StageCounts) == 0 {
		cfg = DefaultConfig()
	}
	if cfg.StageCounts[0] != 1 {
		return nil, fmt.Errorf("rmi: first stage must have exactly 1 model, got %d", cfg.StageCounts[0])
	}
	if n <= 0 {
		return nil, fmt.Errorf("rmi: reference set size must be positive, got %d", n)
	}
	dim := len(examples[0].Vector)
	r := &RMI{cfg: cfg, inDim: dim + 1, logN: math.Log1p(float64(n))}
	rng := rand.New(rand.NewSource(cfg.Seed))

	inputs := make([][]float64, len(examples))
	targets := make([][]float64, len(examples))
	for i, ex := range examples {
		if len(ex.Vector) != dim {
			return nil, fmt.Errorf("rmi: example %d has dim %d, want %d", i, len(ex.Vector), dim)
		}
		inputs[i] = r.featurize(ex.Vector, ex.Radius, nil)
		targets[i] = []float64{r.normalize(ex.Count)}
	}

	widths := append([]int{r.inDim}, cfg.Hidden...)
	widths = append(widths, 1)

	// assigned[i] is the model id (within the current stage) of example i.
	assigned := make([]int, len(examples))
	for si, count := range cfg.StageCounts {
		stage := make([]*nn.Network, count)
		r.stages = append(r.stages, stage)
		// Partition examples by assignment.
		byModel := make([][]int, count)
		for i, m := range assigned {
			byModel[m] = append(byModel[m], i)
		}
		for m := 0; m < count; m++ {
			net := nn.NewNetwork(widths, nn.ReLU, nn.Sigmoid, rng)
			stage[m] = net
			idxs := byModel[m]
			if len(idxs) == 0 {
				continue // an unreached model keeps its random init
			}
			in := make([][]float64, len(idxs))
			tg := make([][]float64, len(idxs))
			for k, i := range idxs {
				in[k] = inputs[i]
				tg[k] = targets[i]
			}
			if _, err := net.Fit(in, tg, nn.TrainConfig{
				Epochs:    cfg.Epochs,
				BatchSize: cfg.BatchSize,
				LR:        cfg.LR,
				Seed:      cfg.Seed + int64(si*100+m),
			}); err != nil {
				return nil, err
			}
		}
		// Route every example down for the next stage.
		if si+1 < len(cfg.StageCounts) {
			next := cfg.StageCounts[si+1]
			scratch := nn.NewScratch(stage[0]) // every model has the same widths
			for i := range examples {
				y := stage[assigned[i]].Predict1(inputs[i], scratch)
				assigned[i] = route(y, next)
			}
		}
	}
	r.scratch = nil
	return r, nil
}

// route maps a [0,1] prediction to a model index in [0, count).
func route(y float64, count int) int {
	idx := int(y * float64(count))
	if idx < 0 {
		return 0
	}
	if idx >= count {
		return count - 1
	}
	return idx
}

func (r *RMI) featurize(v []float32, radius float64, buf []float64) []float64 {
	if buf == nil {
		buf = make([]float64, r.inDim)
	}
	for i, x := range v {
		buf[i] = float64(x)
	}
	buf[len(v)] = radius
	return buf
}

func (r *RMI) normalize(count int) float64 {
	return math.Log1p(float64(count)) / r.logN
}

func (r *RMI) denormalize(y float64) float64 {
	if y < 0 {
		y = 0
	}
	if y > 1 {
		y = 1
	}
	return math.Expm1(y * r.logN)
}

// Estimate predicts the number of points within the given radius of v,
// relative to the reference set the index was trained on. Not safe for
// concurrent use; concurrent callers must use EstimateWith.
func (r *RMI) Estimate(v []float32, radius float64) float64 {
	if r.scratch == nil {
		sc := r.NewScratch()
		r.scratch = sc.nets
	}
	return r.estimate(v, radius, &Scratch{buf: make([]float64, r.inDim), nets: r.scratch})
}

// EstimateWith is the goroutine-safe variant of Estimate.
func (r *RMI) EstimateWith(v []float32, radius float64, s *Scratch) float64 {
	return r.estimate(v, radius, s)
}

func (r *RMI) estimate(v []float32, radius float64, s *Scratch) float64 {
	x := r.featurize(v, radius, s.buf)
	model := 0
	scratchIdx := 0
	var y float64
	for si, stage := range r.stages {
		net := stage[model]
		y = net.Predict1(x, s.nets[scratchIdx+model])
		scratchIdx += len(stage)
		if si+1 < len(r.stages) {
			model = route(y, len(r.stages[si+1]))
		}
	}
	return r.denormalize(y)
}

// NumModels returns the total model count (7 for the paper's 1+2+4).
func (r *RMI) NumModels() int {
	total := 0
	for _, s := range r.stages {
		total += len(s)
	}
	return total
}

// InDim returns the model input dimension (embedding dim + 1).
func (r *RMI) InDim() int { return r.inDim }
