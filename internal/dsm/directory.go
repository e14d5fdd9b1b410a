package dsm

// The directory layer: who manages a page — who tracks its owner and
// copyset and through whom transfer requests pass (§3.1). The paper's
// implementation fixes each page's manager statically (page number mod
// cluster size); Li & Hudak's thesis also describes a centralized
// manager (all pages on one host) and a *dynamic distributed manager*
// where there is no manager at all: each host keeps a probable-owner
// hint per page and requests chase the hint chain to the true owner
// (dynamic.go). The replication engines (engine.go) fault through this
// interface, so the scheme is swappable without touching them.

import (
	"fmt"

	"repro/internal/sim"
)

// Directory selects the manager-placement scheme.
type Directory int

const (
	// DirFixed distributes managers round-robin (page number mod cluster
	// size) — the paper's fixed distributed manager (§3.1) and the
	// default.
	DirFixed Directory = iota
	// DirCentral places every page's manager on host 0 — Li's
	// centralized manager.
	DirCentral
	// DirDynamic is Li & Hudak's dynamic distributed manager: no fixed
	// manager; each host keeps a probable owner per page and faults
	// forward along the hint chain to the real owner, compressing hints
	// as they go. Only defined for PolicyMRSW.
	DirDynamic
)

// String names the directory scheme.
func (d Directory) String() string {
	switch d {
	case DirFixed:
		return "fixed"
	case DirCentral:
		return "central"
	case DirDynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Directory(%d)", int(d))
	}
}

// ParseDirectory maps a scheme name to its Directory value.
func ParseDirectory(s string) (Directory, error) {
	for _, d := range []Directory{DirFixed, DirCentral, DirDynamic} {
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("dsm: unknown directory scheme %q", s)
}

// directory is the manager-placement scheme: it locates a page's
// manager and runs the host-side page-fault transaction that obtains a
// copy or ownership through it.
type directory interface {
	// home returns the page's manager host. Fixed schemes compute it;
	// the dynamic scheme has no manager and panics (use Owner/probable
	// hints instead).
	home(page PageNo) HostID
	// fault obtains the page on this host with the requested right. It
	// runs under the page's local fault lock.
	fault(p *sim.Proc, page PageNo, write bool) error
	// allocOwned records first-touch ownership of a freshly allocated
	// page on this host (called on every host that keeps a zero-filled
	// writable copy at allocation time).
	allocOwned(page PageNo)
}

// newDirectory builds the configured manager-placement scheme.
func newDirectory(m *Module) directory {
	switch m.cfg.Directory {
	case DirCentral:
		return &fixedDirectory{m: m, central: true}
	case DirDynamic:
		return newDynamicDirectory(m)
	default:
		return &fixedDirectory{m: m}
	}
}

// fixedDirectory is the static-placement family: every host can compute
// any page's manager locally, so a fault is one request to the manager
// (which owns the transfer transaction, protocol.go).
type fixedDirectory struct {
	m       *Module
	central bool
}

func (d *fixedDirectory) home(page PageNo) HostID {
	if d.central {
		return 0
	}
	return HostID(int(page) % len(d.m.hosts))
}

func (d *fixedDirectory) fault(p *sim.Proc, page PageNo, write bool) error {
	m := d.m
	if m.manager(page) == m.id {
		return m.localManagerFault(p, page, write)
	}
	return m.remoteFault(p, page, write)
}

func (d *fixedDirectory) allocOwned(PageNo) {}
