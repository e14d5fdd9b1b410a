package dsm

// Protocol mutations: deliberately injected coherence bugs for the model
// checker's mutation-kill harness (internal/mc). Each mutation disables
// or corrupts exactly one step of the MRSW/update protocol; the harness
// proves the checker has teeth by demonstrating that every mutation is
// detected — by the invariant checker, the SC trace checker, a protocol
// timeout, or a deadlock — within a bounded number of explored
// schedules. MutNone (the zero value) is the correct protocol.

import "fmt"

// Mutation selects one injected protocol bug, cluster-wide.
type Mutation int

const (
	// MutNone runs the unmodified protocol.
	MutNone Mutation = iota
	// MutSkipInvalidation suppresses all outgoing invalidations before a
	// write: readers keep stale copies (the classic silent coherence bug).
	MutSkipInvalidation
	// MutDropCopyset makes the manager forget to record the requester of
	// a read copy in the page's copyset, so a later write never
	// invalidates that reader.
	MutDropCopyset
	// MutStaleOwner makes the manager skip the ownership update after a
	// write transfer: the owner field keeps pointing at the previous
	// owner, whose copy left with the transfer.
	MutStaleOwner
	// MutUnsequencedUpdate applies write-update writes locally without
	// routing them through the manager's sequencer, so replicas diverge.
	MutUnsequencedUpdate
	// MutLostAck drops the acknowledgement of every invalidation: the
	// copy is discarded but the writer's multicast never completes.
	MutLostAck
	// MutDoubleWriterGrant makes a host serving a write transfer keep its
	// own copy (and access right) instead of invalidating it, so two
	// writable copies can coexist.
	MutDoubleWriterGrant
	// MutAllocOverrun inflates the allocation manager's record of a
	// page's used bytes by one, so the allocated prefix is no longer a
	// whole number of elements (and can overrun the page).
	MutAllocOverrun
	// MutSkipConversion makes the one receive-side conversion
	// (convertForeign) keep bytes from incompatible machines verbatim —
	// page bodies, update pushes, quorum images, recovered copies, RC
	// diffs and central-server traffic alike — leaving foreign-format
	// bytes behind (§2.3's corruption scenario).
	MutSkipConversion
	// MutForgetRecovery makes a manager skip the copyset re-own after an
	// owner crash: the page stays wedged at its dead owner and every
	// later access times out instead of recovering.
	MutForgetRecovery
	// MutStaleProbableOwner makes a dynamic-directory owner skip the
	// probable-owner update when relinquishing ownership: its hint keeps
	// pointing at itself, so later requests forwarded through it stop
	// one hop short of the true owner — forever, as a self-loop the
	// chain-bound assertion trips (dynamic.go).
	MutStaleProbableOwner
	// MutStaleQuorumRead makes a quorum read trust its local replica
	// alone — no majority query, no write-back. A read can then return a
	// value older than one a completed write installed at a majority
	// (the new/old inversion SC-ABD's phase-1 quorum exists to prevent).
	MutStaleQuorumRead
	// MutSplitBrainWrite makes a quorum write declare success after
	// installing only its own local replica, without waiting for a
	// majority of acks — the split-brain bug: two components (or two
	// racing writers) both accept writes no quorum ever orders.
	MutSplitBrainWrite
	// MutLostDiff makes every release silently drop its first non-empty
	// page diff (and the write notice that would advertise it) while
	// still advancing the vector timestamp — so a synchronized acquirer
	// expects the interval's writes and reads stale bytes instead (the
	// RC happens-before checker's core guarantee).
	MutLostDiff
	// MutStaleTwinMerge makes a pulled or pushed diff land only in the
	// live twin when one exists, never in the page itself: reads after
	// the acquire return pre-interval bytes even though the interval
	// was delivered (the twin-merge rule rc.go exists to get right).
	MutStaleTwinMerge

	numMutations
)

// Mutations lists every real mutation (excluding MutNone).
func Mutations() []Mutation {
	out := make([]Mutation, 0, numMutations-1)
	for mu := MutNone + 1; mu < numMutations; mu++ {
		out = append(out, mu)
	}
	return out
}

// String names the mutation (the -mutation flag spelling).
func (mu Mutation) String() string {
	switch mu {
	case MutNone:
		return "none"
	case MutSkipInvalidation:
		return "skip-invalidation"
	case MutDropCopyset:
		return "drop-copyset"
	case MutStaleOwner:
		return "stale-owner"
	case MutUnsequencedUpdate:
		return "unsequenced-update"
	case MutLostAck:
		return "lost-ack"
	case MutDoubleWriterGrant:
		return "double-writer-grant"
	case MutAllocOverrun:
		return "alloc-overrun"
	case MutSkipConversion:
		return "skip-conversion"
	case MutForgetRecovery:
		return "forget-recovery"
	case MutStaleProbableOwner:
		return "stale-probable-owner"
	case MutStaleQuorumRead:
		return "stale-quorum-read"
	case MutSplitBrainWrite:
		return "split-brain-write"
	case MutLostDiff:
		return "lost-diff"
	case MutStaleTwinMerge:
		return "stale-twin-merge"
	default:
		return fmt.Sprintf("Mutation(%d)", int(mu))
	}
}

// ParseMutation resolves a mutation name (as printed by String).
func ParseMutation(name string) (Mutation, error) {
	for mu := MutNone; mu < numMutations; mu++ {
		if mu.String() == name {
			return mu, nil
		}
	}
	return MutNone, fmt.Errorf("dsm: unknown mutation %q", name)
}
