package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 || len(x.Data) != 24 {
		t.Fatalf("size = %d", x.Size())
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero dimension")
		}
	}()
	New(2, 0)
}

func TestFromSliceValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched length")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestSetRowMajor(t *testing.T) {
	x := New(2, 3)
	x.Set(7.5, 1, 2)
	if x.Data[5] != 7.5 {
		t.Fatal("row-major layout broken")
	}
}

func TestSetPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	x.Set(1, 2, 0)
}

func TestCloneIsIndependent(t *testing.T) {
	x := New(3)
	c := x.Clone()
	c.Data[0] = 9
	if x.Data[0] != 0 {
		t.Fatal("clone aliases data")
	}
}

func TestArithmeticInPlace(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := FromSlice([]float64{10, 20}, 2)
	x.AddInPlace(y)
	x.AddInPlace(y)
	if x.Data[0] != 21 || x.Data[1] != 42 {
		t.Fatalf("data = %v", x.Data)
	}
}

func TestMatVec(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6}
	y := make([]float64, 2)
	MatVecBatch(2, 3, 1, a, []float64{1, 0, -1}, y)
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("y = %v", y)
	}
}

// Property: MatTVec is the adjoint of MatVecBatch: <Ax, y> == <x, Aᵀy>.
func TestMatVecAdjointQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(5), 1+r.Intn(5)
		a := Randn(r, 1, m, n).Data
		x, y := Randn(r, 1, n).Data, Randn(r, 1, m).Data
		ax, aty := make([]float64, m), make([]float64, n)
		MatVecBatch(m, n, 1, a, x, ax)
		MatTVec(n, m, a, y, aty)
		var lhs, rhs float64
		for i := range y {
			lhs += ax[i] * y[i]
		}
		for i := range x {
			rhs += x[i] * aty[i]
		}
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmax(t *testing.T) {
	p := make([]float64, 4)
	SoftmaxInto(p, []float64{1, 1, 1, 1})
	for _, v := range p {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("uniform softmax = %v", p)
		}
	}
	// Numerically stable for huge logits.
	p = p[:2]
	SoftmaxInto(p, []float64{1000, 999})
	if math.IsNaN(p[0]) || p[0] < p[1] {
		t.Fatalf("softmax overflow: %v", p)
	}
	sum := p[0] + p[1]
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestRandnDeterministicPerSeed(t *testing.T) {
	a := Randn(rand.New(rand.NewSource(5)), 1, 10)
	b := Randn(rand.New(rand.NewSource(5)), 1, 10)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("Randn not deterministic")
		}
	}
}
