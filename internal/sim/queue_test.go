package sim

import "testing"

// TestQueueMatchesSliceModel runs random pushes at both ends, pops and
// removals against a plain slice. After every operation the queue must
// hold the model's elements in order, every slot outside the live window
// must be zero, and the backing must stay within twice the peak length
// (at least 8 slots).
func TestQueueMatchesSliceModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRNG(seed)
		var q Queue[int]
		var model []int
		next, peak := 1, 0 // elements are non-zero, so a zero slot is vacant
		for step := 0; step < 3000; step++ {
			// Phases of growth and shrinkage take the queue through several
			// doublings and many wraps of the ring.
			grow := (step/500)%2 == 0
			switch r := rng.Intn(10); {
			case r < 2 || (grow && r < 6):
				q.PushBack(next)
				model = append(model, next)
				next++
			case r < 3 || (grow && r < 7):
				q.PushFront(next)
				model = append([]int{next}, model...)
				next++
			case r < 9:
				if len(model) == 0 {
					continue
				}
				if got := q.PopFront(); got != model[0] {
					t.Fatalf("seed %d step %d: PopFront = %d, want %d", seed, step, got, model[0])
				}
				model = model[1:]
			default:
				if len(model) == 0 {
					continue
				}
				i := rng.Intn(len(model))
				q.RemoveAt(i)
				model = append(model[:i:i], model[i+1:]...)
			}
			peak = max(peak, len(model))
			if q.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, q.Len(), len(model))
			}
			for i, want := range model {
				if got := q.At(i); got != want {
					t.Fatalf("seed %d step %d: At(%d) = %d, want %d", seed, step, i, got, want)
				}
			}
			live := 0
			for _, v := range q.buf {
				if v != 0 {
					live++
				}
			}
			if live != len(model) {
				t.Fatalf("seed %d step %d: %d non-zero slots for %d elements", seed, step, live, len(model))
			}
			if limit := max(8, 2*peak); q.Cap() > limit {
				t.Fatalf("seed %d step %d: %d slots for a peak of %d", seed, step, q.Cap(), peak)
			}
		}
		if peak < 64 {
			t.Fatalf("seed %d: peak length %d; the test must cross several doublings", seed, peak)
		}
	}
}

func TestQueuePanicsOutOfRange(t *testing.T) {
	var q Queue[int]
	q.PushBack(1)
	for name, fn := range map[string]func(){
		"At past the back":       func() { q.At(1) },
		"At before the front":    func() { q.At(-1) },
		"RemoveAt past the back": func() { q.RemoveAt(1) },
		"PopFront when empty":    func() { q.PopFront(); q.PopFront() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestQueueSteadyStateAllocFree: once a queue has reached a depth, push
// and pop cycles at that depth allocate nothing, at either end.
func TestQueueSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	type record struct {
		p *int
		n int
	}
	var q Queue[record]
	x := 7
	for i := 0; i < 100; i++ {
		q.PushBack(record{&x, i})
	}
	if avg := testing.AllocsPerRun(1000, func() {
		q.PushBack(q.PopFront())
	}); avg != 0 {
		t.Fatalf("PushBack/PopFront at depth 100: %v allocs per cycle, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		q.PushFront(record{&x, 0})
		q.PopFront()
		q.PushBack(q.PopFront())
	}); avg != 0 {
		t.Fatalf("PushFront/PopFront at depth 100: %v allocs per cycle, want 0", avg)
	}
}
