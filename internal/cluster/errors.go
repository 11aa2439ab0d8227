package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"syscall"
)

// This file is the failure taxonomy of the cluster: every error a query
// execution can surface is classified into exactly one of three classes,
// and the barrier paths wrap worker failures into a typed FailureError
// carrying enough context (worker id, session tag, membership epoch,
// phase) for a retry layer — or a fault-injection test — to act on it.

// FailureClass partitions execution errors by what a caller should do
// about them.
type FailureClass int

const (
	// WorkerFailure is a dead or unreachable worker: a killed node, a
	// reset connection, a dropped frame, a heartbeat timeout. The query's
	// work is lost but the cluster can recover (Recover) and the query can
	// be retried on the surviving membership.
	WorkerFailure FailureClass = iota + 1
	// QueryCancelled is the query's own context firing (cancellation or
	// deadline). Never retried: the caller asked for the abort.
	QueryCancelled
	// Fatal is everything else — logic errors, protocol violations, a
	// closed cluster. Retrying cannot help.
	Fatal
)

func (c FailureClass) String() string {
	switch c {
	case WorkerFailure:
		return "worker failure"
	case QueryCancelled:
		return "query cancelled"
	case Fatal:
		return "fatal"
	default:
		return fmt.Sprintf("FailureClass(%d)", int(c))
	}
}

// FailureError is a classified execution failure. Worker is the physical
// node id when known (-1 otherwise); Session and Epoch identify the
// execution epoch that failed; Phase is the cluster phase sequence at the
// failure (0 when unknown).
type FailureError struct {
	Class   FailureClass
	Worker  int
	Session int64
	Epoch   int64
	Phase   int64
	Err     error
}

func (e *FailureError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %s", e.Class)
	if e.Worker >= 0 {
		fmt.Fprintf(&b, " worker=%d", e.Worker)
	}
	if e.Phase != 0 {
		fmt.Fprintf(&b, " phase=%d", e.Phase)
	}
	if e.Session != 0 {
		fmt.Fprintf(&b, " session=%d epoch=%d", e.Session, e.Epoch)
	}
	if e.Err != nil {
		fmt.Fprintf(&b, ": %v", e.Err)
	}
	return b.String()
}

func (e *FailureError) Unwrap() error { return e.Err }

// ProtocolError is a frame that breaks the data-plane protocol: the wrong
// kind or phase for the receive waiting on it, or rows of another arity
// than the schema they would be received into. The receive site rejects
// the frame before absorbing any of its rows and fails its phase with this
// error, which classifies as Fatal.
type ProtocolError struct {
	From   int // sending node (DriverNode for the driver)
	Kind   MsgKind
	Seq    int64
	Reason string
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("cluster: protocol violation: %s (from node %d, kind=%d, seq=%d)",
		e.Reason, e.From, e.Kind, e.Seq)
}

// protocolViolation builds the ProtocolError for msg.
func protocolViolation(msg *DataMsg, format string, args ...any) error {
	return &ProtocolError{From: msg.From, Kind: msg.Kind, Seq: msg.Seq, Reason: fmt.Sprintf(format, args...)}
}

// checkArity rejects a frame unless it carries rows of the given arity —
// the check every receive site makes before copying a frame's rows into
// its schema.
func checkArity(msg *DataMsg, arity int) error {
	if msg.Batch == nil {
		return protocolViolation(msg, "data frame without rows")
	}
	if got := msg.Batch.Arity(); got != arity {
		return protocolViolation(msg, "rows of arity %d, want %d", got, arity)
	}
	return nil
}

// errWorkerDead is the barrier-path error for a member known dead before
// the phase started (killed, heartbeat-timed-out, or crashed earlier).
var errWorkerDead = errors.New("worker is dead (membership not yet recovered)")

// Classify maps an execution error to the failure taxonomy.
//
// The query's context takes precedence over everything: a cancelled
// context racing a transport close (or a worker death) must classify as
// QueryCancelled, never as a worker failure — the caller asked for the
// abort, whatever error text won the race.
func Classify(ctx context.Context, err error) FailureClass {
	if err == nil {
		return 0
	}
	if ctx != nil && ctx.Err() != nil {
		return QueryCancelled
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return QueryCancelled
	}
	var fe *FailureError
	if errors.As(err, &fe) && fe.Class != 0 {
		return fe.Class
	}
	if isWorkerFailure(err) {
		return WorkerFailure
	}
	return Fatal
}

// isWorkerFailure recognizes the error shapes a dead peer produces on a
// real data plane: closed/reset connections, truncated reads, the fault
// injector's simulated connection failures, and a worker that lost a
// broadcast it was sent.
func isWorkerFailure(err error) bool {
	if errors.Is(err, errWorkerDead) || errors.Is(err, ErrInjectedDrop) || errors.Is(err, ErrBroadcastLost) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	var ne *net.OpError
	if errors.As(err, &ne) {
		return true
	}
	s := err.Error()
	return strings.Contains(s, "connection reset") ||
		strings.Contains(s, "broken pipe") ||
		strings.Contains(s, "use of closed network connection")
}
