package rmtsched

import (
	"math/rand"
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/ml/feature"
	"rmtk/internal/ml/mlp"
	"rmtk/internal/schedsim"
	"rmtk/internal/workload"
)

// trainToy trains a small migration MLP on synthetic normalized features:
// migrate iff normalized imbalance > 4 and not cache hot.
func trainToy(t *testing.T, cols []int) *mlp.QMLP {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	width := schedsim.NumFeatures
	if cols != nil {
		width = len(cols)
	}
	var X [][]float64
	var y []int
	for i := 0; i < 1200; i++ {
		var f schedsim.Features
		f.V[schedsim.FImbalance] = rng.Int63n(4096)
		f.V[schedsim.FCacheHot] = rng.Int63n(2)
		f.V[schedsim.FSrcNrRunning] = rng.Int63n(8)
		norm := f.Normalized()
		if cols != nil {
			norm = feature.SelectRow(norm, cols)
		}
		row := make([]float64, width)
		for j, v := range norm {
			row[j] = float64(v)
		}
		label := 0
		if f.V[schedsim.FImbalance] > 1024 && f.V[schedsim.FCacheHot] == 0 {
			label = 1
		}
		X = append(X, row)
		y = append(y, label)
	}
	net, err := mlp.New([]int{width, 12, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.TrainStandardized(X, y, mlp.TrainConfig{Epochs: 50, LR: 0.05, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	q, err := mlp.Quantize(net, X, mlp.QuantizeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestInstallAndDecide(t *testing.T) {
	q := trainToy(t, nil)
	k := core.NewKernel(core.Config{})
	dec, err := Install(k, ctrl.New(k), q, "toy", nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name() != "toy" {
		t.Fatal("name lost")
	}
	// Kernel-routed decisions must equal native QMLP predictions.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 400; i++ {
		var f schedsim.Features
		f.V[schedsim.FImbalance] = rng.Int63n(4096)
		f.V[schedsim.FCacheHot] = rng.Int63n(2)
		f.V[schedsim.FSrcNrRunning] = rng.Int63n(8)
		want := q.Predict(f.Normalized()) == 1
		if got := dec.CanMigrate(&f); got != want {
			t.Fatalf("decision diverges at %s: kernel %v, native %v", f.String(), got, want)
		}
	}
}

func TestInstallLeanProjection(t *testing.T) {
	cols := []int{schedsim.FImbalance, schedsim.FCacheHot}
	q := trainToy(t, cols)
	k := core.NewKernel(core.Config{})
	dec, err := Install(k, ctrl.New(k), q, "lean", cols)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		var f schedsim.Features
		f.V[schedsim.FImbalance] = rng.Int63n(4096)
		f.V[schedsim.FCacheHot] = rng.Int63n(2)
		want := q.Predict(feature.SelectRow(f.Normalized(), cols)) == 1
		if got := dec.CanMigrate(&f); got != want {
			t.Fatal("lean decision diverges")
		}
	}
}

func TestTwoDecidersCoexist(t *testing.T) {
	k := core.NewKernel(core.Config{})
	plane := ctrl.New(k)
	qa := trainToy(t, nil)
	if _, err := Install(k, plane, qa, "a", nil); err != nil {
		t.Fatal(err)
	}
	qb := trainToy(t, nil)
	if _, err := Install(k, plane, qb, "b", nil); err != nil {
		t.Fatalf("second decider rejected: %v", err)
	}
}

func TestEndToEndSchedulerRun(t *testing.T) {
	q := trainToy(t, nil)
	k := core.NewKernel(core.Config{})
	dec, err := Install(k, ctrl.New(k), q, "toy", nil)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Blackscholes(workload.SchedConfig{Seed: 3})
	r := schedsim.Run(schedsim.Config{CPUs: 4, Seed: 2}, wl, dec)
	if r.Tasks != 64 {
		t.Fatalf("finished %d tasks", r.Tasks)
	}
}
