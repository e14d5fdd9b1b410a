package dsm_test

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/dsm"
)

// fillInts sets every int field reachable in v (nested structs
// included) to base times its running index, which it returns advanced.
func fillInts(v reflect.Value, base, idx int) int {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			idx++
			f.SetInt(int64(base * idx))
		case reflect.Struct:
			idx = fillInts(f, base, idx)
		}
	}
	return idx
}

// checkInts walks got like fillInts and checks each int field holds
// want(index), naming the field on a mismatch.
func checkInts(t *testing.T, v reflect.Value, path string, idx int, want func(name string, idx int) int) int {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		name := path + v.Type().Field(i).Name
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			idx++
			if w := want(name, idx); int(f.Int()) != w {
				t.Errorf("%s = %d, want %d", name, f.Int(), w)
			}
		case reflect.Struct:
			idx = checkInts(t, f, name+".", idx, want)
		}
	}
	return idx
}

// TestTotalDSMStatsSumsEveryField gives two hosts distinct values in
// every int counter of dsm.Stats and checks the cluster total: every
// field is the sum, except ChainMax, which is the longer chain. A
// counter added to Stats but not to Stats.Add fails here.
func TestTotalDSMStatsSumsEveryField(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Hosts: []cluster.HostSpec{{Kind: arch.Sun}, {Kind: arch.Firefly}},
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, base := range []int{1, 100} {
		var s dsm.Stats
		fillInts(reflect.ValueOf(&s).Elem(), base, 0)
		dsm.SetStats(c.Hosts[i].DSM, s)
	}
	total := c.TotalDSMStats()
	n := checkInts(t, reflect.ValueOf(total), "", 0, func(name string, idx int) int {
		if name == "ChainMax" {
			return 100 * idx
		}
		return 101 * idx
	})
	if n < 30 {
		t.Fatalf("walked only %d int fields of dsm.Stats", n)
	}
}
