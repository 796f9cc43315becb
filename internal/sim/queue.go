package sim

// Queue is a FIFO of values on a ring buffer. Every service queue of the
// simulated machine is one: the kernel's ready queues, DPC queue, waiter
// lists, work-item queue and pending overhead episodes, the disk's request
// queue, the NIC's receive ring and an application's op script. The zero
// Queue is empty and ready to use.
//
// The backing array holds zero or a power-of-two number of slots, so an
// index wraps with a mask. A push that finds it full doubles it, starting
// from 8 slots; it is never shed, so it is bounded by twice the queue's
// peak length (and at least 8), and a queue held at a steady depth
// allocates nothing. A vacated slot is zeroed, so the queue pins nothing
// it no longer holds.
type Queue[T any] struct {
	buf  []T
	head int // slot of the front element
	n    int // number of elements
}

// Len returns the number of elements in the queue.
func (q *Queue[T]) Len() int { return q.n }

// Cap returns the number of slots in the backing array.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// PushBack appends v behind every element.
func (q *Queue[T]) PushBack(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// PushFront inserts v ahead of every element.
func (q *Queue[T]) PushFront(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = v
	q.n++
}

// PopFront removes and returns the front element. The queue must not be
// empty.
func (q *Queue[T]) PopFront() T {
	if q.n == 0 {
		panic("sim: PopFront of an empty queue")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// At returns the element i places behind the front; At(0) is the front.
func (q *Queue[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("sim: queue index out of range")
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// RemoveAt removes the element i places behind the front; the elements
// behind it move up one place.
func (q *Queue[T]) RemoveAt(i int) {
	if i < 0 || i >= q.n {
		panic("sim: queue index out of range")
	}
	mask := len(q.buf) - 1
	for ; i < q.n-1; i++ {
		q.buf[(q.head+i)&mask] = q.buf[(q.head+i+1)&mask]
	}
	var zero T
	q.buf[(q.head+i)&mask] = zero
	q.n--
}

// grow doubles the full backing array, or gives an empty queue its first
// 8 slots, and moves the elements to the start of the new array in order.
func (q *Queue[T]) grow() {
	buf := make([]T, max(8, 2*len(q.buf)))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf = buf
	q.head = 0
}
