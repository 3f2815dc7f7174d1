package live

import (
	"context"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// Service is the live-store surface the front ends take: cmd/d2cqd's HTTP
// handlers and wire.NewServer serve whatever implements it, through the
// request core (request.go). *Store is the one implementation; the interface
// exists so tests and the benchmark harness can wrap a store (recording,
// tracing or faking calls) without either front end knowing.
type Service interface {
	Register(ctx context.Context, name string, q cq.Query) error
	Submit(delta *storage.Delta) error
	// SubmitSync submits delta and returns a version at which it is visible.
	SubmitSync(ctx context.Context, delta *storage.Delta) (uint64, error)
	Flush(ctx context.Context) error
	Watch(name string) (*Subscription, error)
	Subscribe(name string, from uint64, hasCursor bool) (*Subscription, Snapshot, error)
	Info(name string) (QueryInfo, error)
	Solutions(ctx context.Context, name string, limit int) ([][]string, uint64, error)
	Version() uint64
	// PendingTuples is the coalesced pending batch's tuple count.
	PendingTuples() int
	// Stats is the /stats payload and the store half of the wire STATS
	// document.
	Stats() Stats
}

var _ Service = (*Store)(nil)
