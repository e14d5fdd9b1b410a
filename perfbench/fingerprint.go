package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/cluster"
	"repro/internal/proto"
	"repro/internal/sim"
)

// fingerprint is everything a run computes on the virtual clock:
// elapsed time plus the DSM, remote-operation and network counters,
// summed over hosts. The simulation is deterministic, so a timed run
// must reproduce its seed's oracle-checked fingerprint exactly; any
// difference means the timed run did different work.
type fingerprint struct {
	ElapsedNS int64

	ReadFaults, WriteFaults, PagesFetched, PagesServed, Upgrades int
	InvalidationsSent, InvalidationsReceived, Conversions        int
	BytesFetched                                                 int
	RCTwins, RCDiffsSent, RCDiffBytes, RCDiffsApplied, RCPulls   int
	Forwards, ChainServes, ChainHops, ChainMax                   int
	Messages, DsyncMessages                                      int

	Sent, Received, FragmentsSent, FragmentsReceived  int
	Retransmits, Duplicates, BulkBytes, ChecksumDrops int

	FramesSent, FramesDropped, BytesSent, CrossSegmentFrames int
	BusyNS                                                   int64
}

// dsyncKinds are the synchronization service's message kinds.
var dsyncKinds = map[proto.Kind]bool{
	proto.KindSemOp: true, proto.KindSemReply: true,
	proto.KindEventOp: true, proto.KindEventReply: true,
	proto.KindBarrierOp: true, proto.KindBarrierReply: true,
}

func fingerprintOf(c *cluster.Cluster, elapsed sim.Duration) fingerprint {
	d := c.TotalDSMStats()
	f := fingerprint{
		ElapsedNS:             int64(elapsed),
		ReadFaults:            d.ReadFaults,
		WriteFaults:           d.WriteFaults,
		PagesFetched:          d.PagesFetched,
		PagesServed:           d.PagesServed,
		Upgrades:              d.Upgrades,
		InvalidationsSent:     d.InvalidationsSent,
		InvalidationsReceived: d.InvalidationsReceived,
		Conversions:           d.Conversions,
		BytesFetched:          d.BytesFetched,
		RCTwins:               d.RCTwins,
		RCDiffsSent:           d.RCDiffsSent,
		RCDiffBytes:           d.RCDiffBytes,
		RCDiffsApplied:        d.RCDiffsApplied,
		RCPulls:               d.RCPulls,
		Forwards:              d.Forwards,
		ChainServes:           d.ChainServes,
		ChainHops:             d.ChainHops,
		ChainMax:              d.ChainMax,
	}
	for k, n := range d.Messages {
		f.Messages += n
		if dsyncKinds[k] {
			f.DsyncMessages += n
		}
	}
	for _, h := range c.Hosts {
		s := h.EP.Stats()
		f.Sent += s.Sent
		f.Received += s.Received
		f.FragmentsSent += s.FragmentsSent
		f.FragmentsReceived += s.FragmentsReceived
		f.Retransmits += s.Retransmits
		f.Duplicates += s.Duplicates
		f.BulkBytes += s.BulkBytes
		f.ChecksumDrops += s.ChecksumDrops
	}
	n := c.Net.Stats()
	f.FramesSent = n.FramesSent
	f.FramesDropped = n.FramesDropped
	f.BytesSent = n.BytesSent
	f.CrossSegmentFrames = n.CrossSegmentFrames
	f.BusyNS = int64(n.BusyTime)
	return f
}

// sameFingerprints reports whether two runs did identical work.
func sameFingerprints(a, b []fingerprint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// digest is a short printable identity of a run's fingerprints.
func digest(fps []fingerprint) string {
	h := fnv.New64a()
	for _, f := range fps {
		fmt.Fprintf(h, "%+v;", f)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
