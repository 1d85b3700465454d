package rmi

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"lafdbscan/internal/nn"
)

// rmiPayload is the gob wire format of a trained RMI. Networks serialize
// directly (all nn fields are exported).
type rmiPayload struct {
	Version int
	InDim   int
	LogN    float64
	Stages  [][]*nn.Network
}

const serializeVersion = 1

// Save writes the trained model to w. Training configuration is not
// persisted — a loaded model can only predict.
func (r *RMI) Save(w io.Writer) error {
	payload := rmiPayload{
		Version: serializeVersion,
		InDim:   r.inDim,
		LogN:    r.logN,
		Stages:  r.stages,
	}
	return gob.NewEncoder(w).Encode(&payload)
}

// ErrMalformed marks a decoded model whose structure cannot be predicted
// with: a missing or empty stage, or a network of the wrong shape.
var ErrMalformed = errors.New("rmi: malformed model")

// Load reads a model written by Save. Everything it returns is safe to
// Estimate with: a payload of the wrong shape is rejected with ErrMalformed
// rather than panicking on first use.
func Load(rd io.Reader) (*RMI, error) {
	var payload rmiPayload
	if err := gob.NewDecoder(rd).Decode(&payload); err != nil {
		return nil, fmt.Errorf("rmi: decoding model: %w", err)
	}
	if payload.Version != serializeVersion {
		return nil, fmt.Errorf("rmi: unsupported model version %d", payload.Version)
	}
	if err := payload.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	// gob fills only the exported fields; the forward pass's packed
	// weights are rebuilt from the validated W.
	for _, stage := range payload.Stages {
		for _, net := range stage {
			net.Pack()
		}
	}
	return &RMI{
		inDim:  payload.InDim,
		logN:   payload.LogN,
		stages: payload.Stages,
	}, nil
}

// validate checks every property estimate relies on: one root model, no
// empty stage (route would pick model -1), and networks that map InDim
// inputs to one output.
func (p *rmiPayload) validate() error {
	if p.InDim < 2 || !(p.LogN > 0) || math.IsInf(p.LogN, 1) {
		return fmt.Errorf("inDim=%d logN=%v", p.InDim, p.LogN)
	}
	if len(p.Stages) == 0 || len(p.Stages[0]) != 1 {
		return fmt.Errorf("the first of %d stages must hold exactly one model", len(p.Stages))
	}
	for si, stage := range p.Stages {
		if len(stage) == 0 {
			return fmt.Errorf("stage %d is empty", si)
		}
		for m, net := range stage {
			if net == nil {
				return fmt.Errorf("stage %d model %d is missing", si, m)
			}
			if err := net.Validate(); err != nil {
				return fmt.Errorf("stage %d model %d: %v", si, m, err)
			}
			if net.InDim() != p.InDim || net.OutDim() != 1 {
				return fmt.Errorf("stage %d model %d maps %d inputs to %d outputs, want %d to 1",
					si, m, net.InDim(), net.OutDim(), p.InDim)
			}
		}
	}
	return nil
}

// SaveFile writes the model to a file.
func (r *RMI) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a model from a file.
func LoadFile(path string) (*RMI, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
