// Mtclang: the paper's compiler story end to end, from source code.
//
// A five-point stencil kernel is written in the MTC kernel language with
// static row distribution and a barrier per sweep — the same structure as
// the sor benchmark. The example compiles it (naive code generation puts
// a shared load exactly where the source reads the grid), lets the §5.1
// optimizer group the loads, verifies both variants against a host
// reference, and measures the multithreading payoff.
package main

import (
	"context"
	"fmt"
	"log"

	"mtsim"
	"mtsim/internal/mtc"
)

const n = 48    // interior size
const s = n + 2 // stride
const iters = 3

var src = fmt.Sprintf(`
// Red-black relaxation over a %dx%d interior with a fixed boundary.
shared float grid[%d];
barrierdecl done;

func main() {
    var rows = (%d + nthreads - 1) / nthreads;
    var lo = 1 + tid * rows;
    var hi = lo + rows;
    if (hi > %d) { hi = %d; }

    var it; var color; var i; var j;
    for (it = 0; it < %d; it = it + 1) {
        for (color = 0; color < 2; color = color + 1) {
            for (i = lo; i < hi; i = i + 1) {
                for (j = 1 + ((i + 1 + color) & 1); j <= %d; j = j + 2) {
                    var p = i * %d + j;
                    grid[p] = (grid[p-%d] + grid[p+%d] + grid[p-1] + grid[p+1]) * 0.25;
                }
            }
            barrier(done);
        }
    }
}
`, n, n, s*s, n, n+1, n+1, iters, n, s, s, s)

func main() {
	raw, err := mtc.Compile("stencil", src)
	if err != nil {
		log.Fatal(err)
	}
	grouped, st, err := mtsim.Optimize(raw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %d instructions; optimizer formed %v load groups (%.2f loads/switch)\n\n",
		len(raw.Instrs), st.GroupSizes, st.StaticGrouping())

	// Host reference with identical operation order.
	initial := make([]float64, s*s)
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			if i == 0 || j == 0 || i == s-1 || j == s-1 {
				initial[i*s+j] = float64((i*7 + j*13) % 19)
			}
		}
	}
	ref := append([]float64(nil), initial...)
	for it := 0; it < iters; it++ {
		for color := 0; color < 2; color++ {
			for i := 1; i <= n; i++ {
				for j := 1 + ((i + 1 + color) & 1); j <= n; j += 2 {
					p := i*s + j
					ref[p] = (ref[p-s] + ref[p+s] + ref[p-1] + ref[p+1]) * 0.25
				}
			}
		}
	}
	init := func(sh *mtsim.Shared) {
		for i, v := range initial {
			sh.SetFloatAt("grid", int64(i), v)
		}
	}
	check := func(sh *mtsim.Shared) error {
		for i := int64(0); i < int64(s*s); i++ {
			if got := sh.FloatAt("grid", i); got != ref[i] {
				return fmt.Errorf("grid[%d] = %g, want %g", i, got, ref[i])
			}
		}
		return nil
	}

	fmt.Printf("%-10s %16s %18s\n", "threads", "switch-on-load", "explicit-switch")
	for _, threads := range []int{1, 2, 4, 8} {
		r1, err := mtsim.RunCheckedContext(context.Background(), mtsim.Config{
			Procs: 4, Threads: threads, Model: mtsim.SwitchOnLoad, Latency: mtsim.DefaultLatency,
		}, raw, init, check)
		if err != nil {
			log.Fatal(err)
		}
		r2, err := mtsim.RunCheckedContext(context.Background(), mtsim.Config{
			Procs: 4, Threads: threads, Model: mtsim.ExplicitSwitch, Latency: mtsim.DefaultLatency,
		}, grouped, init, check)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %9d cyc %13d cyc   (%.2fx)\n",
			threads, r1.Cycles, r2.Cycles, float64(r1.Cycles)/float64(r2.Cycles))
	}
	fmt.Println("\nboth variants verified against the host reference on every run")
}
