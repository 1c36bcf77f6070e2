// Command gengolden regenerates the repository's golden files (run
// from the repo root after an intended behavior change; the golden
// tests compare against these):
//
//   - internal/apps/testdata/*.mt — kernel and optimizer assembly;
//   - internal/exp/testdata/*.golden.* — deterministic experiment
//     renderings and the metrics JSON schema pins (see exp.GoldenSet).
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/asm"
	"mtsim/internal/exp"
)

func main() {
	// An interrupted regeneration aborts its simulations and exits
	// before writing any experiment golden, rather than half-updating
	// testdata.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	for _, a := range append(apps.All(app.Quick), apps.AllIrregular(app.Quick)...) {
		write("internal/apps/testdata/"+a.Name+".mt", []byte(asm.Format(a.Raw)))
		g, _, err := a.Grouped()
		if err != nil {
			fatal(err)
		}
		write("internal/apps/testdata/"+a.Name+".grouped.mt", []byte(asm.Format(g)))
		fmt.Println(a.Name)
	}
	set, err := exp.GoldenSetContext(ctx, false)
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		write("internal/exp/testdata/"+name, set[name])
		fmt.Println(name)
	}
}

func write(path string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
