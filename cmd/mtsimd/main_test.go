package main

import (
	"math"
	"testing"
)

// finiteRate reports whether rate is a usable token-bucket rate: a
// finite number of requests per second, at least zero.
func finiteRate(rate float64) bool {
	return !math.IsNaN(rate) && !math.IsInf(rate, 0) && rate >= 0
}

// FuzzParseTenants: the -tenants parser never panics, and every tenant
// it accepts has a name, a weight and burst of at least zero, and a
// finite rate of at least zero.
func FuzzParseTenants(f *testing.F) {
	for _, seed := range []string{
		"acme:8:50:10:acme-key,beta:1:0:0",
		"acme:1:nan:3:k",
		"acme:1:+Inf:3",
		" a:1:1e308:0 ,, b:2:0.5:1: ",
		"acme:1:2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tenants, err := parseTenants(s)
		if err != nil {
			return
		}
		for _, tc := range tenants {
			if tc.Name == "" || tc.Weight < 0 || tc.Burst < 0 || !finiteRate(tc.Rate) {
				t.Fatalf("parseTenants(%q) accepted %+v", s, tc)
			}
		}
	})
}

// FuzzParseQuota: the -quota parser never panics, and a quota it
// accepts has a finite rate and a burst, both at least zero.
func FuzzParseQuota(f *testing.F) {
	for _, seed := range []string{"0.0001:1", "NaN:5", "inf:1", "-1:0", "", "5", "1e400:2"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		q, err := parseQuota(s)
		if err == nil && (q.Burst < 0 || !finiteRate(q.Rate)) {
			t.Fatalf("parseQuota(%q) accepted %+v", s, q)
		}
	})
}
