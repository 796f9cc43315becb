// Package wdmlat is a simulation-based reproduction of "A Comparison of
// Windows Driver Model Latency Performance on Windows NT and Windows 98"
// (Erik Cota-Robles and James P. Held, OSDI 1999).
//
// The repository builds, in pure Go with only the standard library:
//
//   - a discrete-event simulated PC (virtual CPU with TSC and hookable IDT,
//     PIT, DMA disk, NIC, sound device),
//   - a WDM kernel (ISRs at device IRQLs, a FIFO DPC queue with three
//     importances, a 32-priority preemptive thread scheduler, dispatcher
//     objects, timers, the kernel work-item queue, IRPs),
//   - two OS personalities calibrated to the paper's measurements
//     (Windows NT 4.0 and Windows 98),
//   - the paper's measurement drivers, latency cause tool, four application
//     stress workloads, and the soft-modem / schedulability analyses.
//
// See DESIGN.md for the system inventory and per-experiment index,
// EXPERIMENTS.md for paper-vs-measured results, and cmd/reproduce for
// regenerating every table and figure.
package wdmlat
