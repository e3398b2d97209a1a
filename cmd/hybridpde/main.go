// Command hybridpde regenerates the tables and figures of the paper's
// evaluation. One experiment per -exp value; -quick shrinks problem sizes
// and trial counts for a fast smoke run.
//
// Usage:
//
//	hybridpde -exp table1|table2|table3|table4|fig2|fig3|fig6|fig7|fig8|fig9|all
//	          [-quick] [-seed N] [-out DIR]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"hybridpde/internal/exp"
)

func main() {
	var (
		which = flag.String("exp", "all", "experiment to run: table1..table4, fig2, fig3, fig6..fig9, ablate, or all")
		quick = flag.Bool("quick", false, "reduced problem sizes and trial counts")
		seed  = flag.Int64("seed", 1, "random seed for problem generation and chip mismatch")
		out   = flag.String("out", "", "directory for image artifacts (PPM basin plots)")
	)
	flag.Parse()
	// Ctrl-C cancels the context every driver takes, so a long sweep stops
	// instead of running a figure to completion: the digital Newton solves
	// and the banded analog solves abort mid-solve, the fig2/fig3 basin
	// sweeps (dense analog solves, milliseconds each) at the next pixel row.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg := exp.Config{Quick: *quick, Seed: *seed, OutDir: *out}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}

	runners := map[string]func(context.Context, exp.Config) (fmt.Stringer, error){
		"table1": func(ctx context.Context, c exp.Config) (fmt.Stringer, error) { return exp.Table1(ctx, c) },
		"table2": func(ctx context.Context, c exp.Config) (fmt.Stringer, error) { return exp.Table2(ctx, c) },
		"table3": func(ctx context.Context, c exp.Config) (fmt.Stringer, error) { return exp.Table3(ctx, c), nil },
		"table4": func(ctx context.Context, c exp.Config) (fmt.Stringer, error) { return exp.Table4(ctx, c) },
		"fig2":   func(ctx context.Context, c exp.Config) (fmt.Stringer, error) { return exp.Fig2(ctx, c) },
		"fig3":   func(ctx context.Context, c exp.Config) (fmt.Stringer, error) { return exp.Fig3(ctx, c) },
		"fig6":   func(ctx context.Context, c exp.Config) (fmt.Stringer, error) { return exp.Fig6(ctx, c) },
		"fig7":   func(ctx context.Context, c exp.Config) (fmt.Stringer, error) { return exp.Fig7(ctx, c) },
		"fig8":   func(ctx context.Context, c exp.Config) (fmt.Stringer, error) { return exp.Fig8(ctx, c) },
		"fig9":   func(ctx context.Context, c exp.Config) (fmt.Stringer, error) { return exp.Fig9(ctx, c) },
		"ablate": func(ctx context.Context, c exp.Config) (fmt.Stringer, error) { return exp.Ablations(ctx, c) },
	}
	order := []string{"table1", "table2", "table3", "table4", "fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "ablate"}

	if *which == "all" {
		for _, name := range order {
			run(ctx, runners[name], cfg, name)
		}
		return
	}
	r, ok := runners[*which]
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q (want one of %v or all)", *which, order))
	}
	run(ctx, r, cfg, *which)
}

func run(ctx context.Context, r func(context.Context, exp.Config) (fmt.Stringer, error), cfg exp.Config, name string) {
	res, err := r(ctx, cfg)
	// Drivers tolerate per-trial solve failures, so a Ctrl-C mid-sweep can
	// surface as a "successful" run of empty rows; report it as the abort it is.
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	fmt.Println(res.String())
	if cfg.OutDir != "" {
		if c, ok := res.(exp.CSVExporter); ok {
			path, err := exp.WriteCSV(cfg.OutDir, name, c)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hybridpde:", err)
	os.Exit(1)
}
