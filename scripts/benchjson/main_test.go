package main

import (
	"strings"
	"testing"
)

// twoPackages is `go test -run ^$ -bench ... -benchtime 1x . ./internal/core`
// output as captured, with one -benchmem line added to the first package.
const twoPackages = `goos: linux
goarch: amd64
pkg: columndisturb
cpu: Intel(R) Xeon(R) Processor
BenchmarkDiffReadsFiltered-2   	       1	     81300 ns/op
BenchmarkCouplingEval-2        	       1	       884.0 ns/op
BenchmarkRunAllSerial-2        	       1	3158221475 ns/op	1234567 B/op	   8901 allocs/op
PASS
ok  	columndisturb	0.038s
goos: linux
goarch: amd64
pkg: columndisturb/internal/core
cpu: Intel(R) Xeon(R) Processor
BenchmarkLoosePhiC/table-2         	       1	      1517 ns/op
BenchmarkLoosePhiC/fastPhiC-2      	       1	      3038 ns/op
BenchmarkLooseLog/table-2          	       1	      1841 ns/op
BenchmarkLooseLog/math.Log-2       	       1	      2965 ns/op
PASS
ok  	columndisturb/internal/core	0.029s
`

func TestParseBenchTwoPackages(t *testing.T) {
	got, err := parseBench(twoPackages)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkDiffReadsFiltered":  81300,
		"BenchmarkCouplingEval":       884,
		"BenchmarkRunAllSerial":       3158221475,
		"BenchmarkLoosePhiC/table":    1517,
		"BenchmarkLoosePhiC/fastPhiC": 3038,
		"BenchmarkLooseLog/table":     1841,
		"BenchmarkLooseLog/math.Log":  2965,
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, ns := range want {
		if g, ok := got[name]; !ok || g != ns {
			t.Errorf("%s = %v (present %v), want %v", name, g, ok, ns)
		}
	}
}

func TestParseBenchDuplicateName(t *testing.T) {
	out := "pkg: a\nBenchmarkX-2 1 10 ns/op\npkg: b\nBenchmarkX-2 1 20 ns/op\n"
	_, err := parseBench(out)
	if err == nil || !strings.Contains(err.Error(), `"a" and "b"`) {
		t.Fatalf("duplicate across packages: err = %v, want one naming both packages", err)
	}
}

func TestParseBenchNoResults(t *testing.T) {
	got, err := parseBench("goos: linux\nPASS\nok  \tcolumndisturb\t0.01s\n")
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v; want no benchmarks and no error", got, err)
	}
}
