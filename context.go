package bvap

// Context- and budget-aware entry points. The plain APIs (Compile, FindAll,
// Simulator.Run) stay untouched for callers that don't need cancellation;
// these variants thread a context.Context and resource budgets through the
// compile and simulation pipelines, checking at pattern/chunk granularity
// so cancellation is prompt without per-symbol overhead.

import (
	"context"
	"fmt"

	"bvap/internal/compiler"
)

// runChunkSymbols is the cancellation granularity of the chunked run loops:
// contexts and budgets are checked every chunk, so a cancel is honored
// within one chunk's worth of simulated symbols.
const runChunkSymbols = 1024

// CompileContext is Compile with cancellation: ctx is checked between
// patterns and before tile mapping, so a canceled or expired context stops
// compilation promptly with the context's error (wrapped; test with
// errors.Is(err, context.Canceled) / context.DeadlineExceeded). Combine
// with WithBudget to cap the total STEs the pattern set may allocate.
func CompileContext(ctx context.Context, patterns []string, opts ...Option) (*Engine, error) {
	copt := compiler.DefaultOptions()
	for _, o := range opts {
		o(&copt)
	}
	copt.Ctx = ctx
	res, err := compiler.Compile(patterns, copt)
	if err != nil {
		return nil, err
	}
	return newEngine(res, patterns), nil
}

// PatternErrors returns one typed *PatternError per pattern that failed to
// compile, in pattern order. Supported patterns contribute nothing. The
// errors unwrap to the ErrSyntax / ErrUnsupported / ErrBudget sentinels.
func (e *Engine) PatternErrors() []error {
	var out []error
	for i, pr := range e.res.Report.PerRegex {
		if pr.Supported {
			continue
		}
		kind := pr.Kind
		if kind == "" {
			kind = compiler.KindCapacity
		}
		out = append(out, &PatternError{
			Index:   i,
			Pattern: pr.Pattern,
			Kind:    kind,
			Reason:  pr.Reason,
		})
	}
	return out
}

// FindAllContext is FindAll with cancellation: the scan checks ctx every
// runChunkSymbols input bytes and returns the matches found so far together
// with the wrapped context error when canceled.
func (e *Engine) FindAllContext(ctx context.Context, input []byte) ([]Match, error) {
	s := e.NewStream()
	return s.scanContext(ctx, input, 0)
}

// SetBudget applies a run-time resource budget to this stream: ScanContext
// stops with a *BudgetError once MaxSymbols input bytes have been consumed.
// Consumption is cumulative across ScanContext calls until Reset, which
// restores the full allowance (the limit itself survives Reset) — so a
// pooled stream gives every input a fresh budget while a long-lived stream
// can still meter one logical input across several calls.
func (s *Stream) SetBudget(b Budget) { s.budget = b }

// ScanContext consumes input incrementally, returning every match (offsets
// relative to this call's input) and stopping early on context cancellation
// or an exhausted symbol budget. Partial results are returned alongside the
// error.
func (s *Stream) ScanContext(ctx context.Context, input []byte) ([]Match, error) {
	return s.scanContext(ctx, input, 0)
}

func (s *Stream) scanContext(ctx context.Context, input []byte, base int) ([]Match, error) {
	var out []Match
	for off := 0; off < len(input); {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("bvap: scan canceled at offset %d: %w", base+off, err)
		}
		end := off + runChunkSymbols
		if end > len(input) {
			end = len(input)
		}
		if s.budget.MaxSymbols > 0 {
			remaining := s.budget.MaxSymbols - s.symbolsRun
			if remaining <= 0 {
				return out, &BudgetError{Resource: "symbols",
					Limit: s.budget.MaxSymbols, Used: s.symbolsRun}
			}
			if int64(end-off) > remaining {
				end = off + int(remaining)
			}
		}
		for i := off; i < end; i++ {
			for _, p := range s.Step(input[i]) { // Step advances symbolsRun
				out = append(out, Match{Pattern: p, End: base + i})
			}
		}
		off = end
	}
	return out, nil
}

// SetBudget applies a run-time resource budget to this simulator:
// RunContext stops with a *BudgetError once MaxSymbols input bytes have
// been simulated (cumulative across calls).
func (s *Simulator) SetBudget(b Budget) { s.budget = b }

// RunContext is Run with cancellation and budgets: the simulation advances
// in runChunkSymbols chunks, checking ctx (including deadlines) and the
// symbol budget between chunks. Statistics accumulated before the stop are
// retained, so a partial Result is still meaningful.
func (s *Simulator) RunContext(ctx context.Context, input []byte) error {
	for off := 0; off < len(input); {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("bvap: simulation canceled at offset %d: %w", off, err)
		}
		end := off + runChunkSymbols
		if end > len(input) {
			end = len(input)
		}
		if s.budget.MaxSymbols > 0 {
			remaining := s.budget.MaxSymbols - s.symbolsRun
			if remaining <= 0 {
				return &BudgetError{Resource: "symbols",
					Limit: s.budget.MaxSymbols, Used: s.symbolsRun}
			}
			if int64(end-off) > remaining {
				end = off + int(remaining)
			}
		}
		s.Run(input[off:end])
		s.symbolsRun += int64(end - off)
		off = end
	}
	return nil
}
