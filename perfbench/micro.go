package main

// Direct timings of three public functions on pages built like the
// workload's own: the page conversion on every heterogeneous transfer,
// the release-consistency diff path, and the message codec that carries
// every page.

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/conv"
	"repro/internal/proto"
)

// timeFunctions returns conv.page_us, conv.diff_us and proto.codec_us
// for the workload's page type and size, Sun to Firefly.
func timeFunctions(w *workload) map[string]metric {
	sun, _ := arch.ByKind(arch.Sun)
	ffly, _ := arch.ByKind(arch.Firefly)
	reg := conv.NewRegistry()
	rng := rand.New(rand.NewSource(1))
	page := make([]byte, w.pageSize)
	w.fill(page, rng)

	// A page arrives in the Sun's representation and is converted in
	// place; each conversion starts from a fresh copy of the page.
	buf := make([]byte, w.pageSize)
	pageUS := perCall(func() {
		copy(buf, page)
		mustConv(reg.ConvertRegion(w.pageType, buf, sun, ffly, 0))
	})

	// One interval's writes to the page: a run of changed elements
	// covering an eighth of it (one matrix row of an 8 KB page of C).
	twin := page
	cur := append([]byte(nil), page...)
	w.fill(cur[len(cur)/2:len(cur)/2+len(cur)/8], rng)
	dst := append([]byte(nil), page...)
	diffUS := perCall(func() {
		d, err := reg.BuildDiff(w.pageType, twin, cur)
		if err != nil {
			panic(err)
		}
		mustConv(reg.ConvertDiff(&d, sun, ffly, 0))
		if err := reg.Apply(&d, dst); err != nil {
			panic(err)
		}
	})

	msg := &proto.Message{Kind: proto.KindPageDeliver, ReqID: 7, From: 1, Page: 42,
		SrcArch: uint8(arch.Sun), Args: []uint32{1, 2}, Data: page}
	wire := make([]byte, 0, msg.EncodedSize())
	var in proto.Message
	codecUS := perCall(func() {
		var err error
		if wire, err = msg.AppendEncode(wire[:0]); err != nil {
			panic(err)
		}
		if err := proto.DecodeBorrowInto(&in, wire); err != nil {
			panic(err)
		}
	})
	return map[string]metric{
		"conv.page_us":   {pageUS, "us"},
		"conv.diff_us":   {diffUS, "us"},
		"proto.codec_us": {codecUS, "us"},
	}
}

func mustConv(_ conv.Report, err error) {
	if err != nil {
		panic(fmt.Sprintf("conversion failed: %v", err))
	}
}

// perCall returns the median microseconds per call of fn over 31
// batches of about 2 ms each.
func perCall(fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for range n {
			fn()
		}
		if time.Since(t0) > 2*time.Millisecond {
			break
		}
		n *= 2
	}
	var per []float64
	for range 31 {
		t0 := time.Now()
		for range n {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e3/float64(n))
	}
	return median(per)
}
