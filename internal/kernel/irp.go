package kernel

import "wdmlat/internal/sim"

// IRP is an I/O request packet. The paper's control application exchanges
// IRPs with the measurement driver via ReadFileEx; the driver writes the
// three captured time stamps into the system buffer and completes the
// request (§2.2). ASB mirrors IRP->AssociatedIrp.SystemBuffer, which the
// paper "pretends is of type LARGE_INTEGER" — slot 0 is the I/O-read TSC,
// slot 1 the DPC TSC, slot 2 the thread TSC.
type IRP struct {
	ASB [4]sim.Time
	Tag any

	// OnComplete is invoked by IoCompleteRequest. It stands in for the
	// user-mode completion routine of ReadFileEx.
	OnComplete func(irp *IRP, completedAt sim.Time)

	completed bool
}

// NewIRP allocates a request packet, reusing a pooled packet when one is
// available.
func (k *Kernel) NewIRP() *IRP {
	if n := len(k.irpFree); n > 0 {
		irp := k.irpFree[n-1]
		k.irpFree[n-1] = nil
		k.irpFree = k.irpFree[:n-1]
		*irp = IRP{}
		return irp
	}
	return &IRP{}
}

// FreeIRP returns a completed packet to the kernel's pool. The caller
// relinquishes the handle: a freed IRP may be handed out again by the
// next NewIRP, so no field may be read or written after the call. It is
// legal to free the packet from inside its own OnComplete routine —
// completion touches nothing after the callback returns. Freeing an
// uncompleted packet panics.
func (k *Kernel) FreeIRP(irp *IRP) {
	if !irp.completed {
		panic("kernel: FreeIRP of uncompleted IRP")
	}
	irp.OnComplete = nil
	irp.Tag = nil
	k.irpFree = append(k.irpFree, irp)
}

// Completed reports whether the IRP has been completed.
func (irp *IRP) Completed() bool { return irp.completed }

// completeIrp is IoCompleteRequest: mark the packet done and deliver it to
// its originator. Completing an already-completed IRP panics — the real
// bug check (MULTIPLE_IRP_COMPLETE_REQUESTS) is fatal too.
func (k *Kernel) completeIrp(irp *IRP) {
	if irp.completed {
		panic("kernel: IRP completed twice")
	}
	irp.completed = true
	if irp.OnComplete != nil {
		irp.OnComplete(irp, k.now())
	}
}

// CompleteIrp completes an IRP from simulation-harness context.
func (k *Kernel) CompleteIrp(irp *IRP) {
	k.completeIrp(irp)
	k.maybeRun()
}
