package fsnet

// Trace-context piggyback (msgTraceCtx). Like the view hints of
// views.go, trace contexts ride under request ID 0: the writer goroutine
// emits one msgTraceCtx immediately before each head-sampled request
// frame in the same batch, and the receiver's read loop decodes it inline
// and attaches it to the request frame whose ID it names. Unsampled
// requests send nothing, so the fast path's wire image is unchanged.
//
// The payload is: uvarint annotated-request-ID, one flags byte, then
// uvarint trace-ID-hi, trace-ID-lo, and the sender's span ID (the
// receiver's parent). The flags byte carries bit 0 = sampled; the
// frame's presence implies it today, but the byte keeps the format
// extensible (tail-only hints, debug bits) without a version bump.

import (
	"errors"

	"aggcache/internal/obs/otrace"
)

// traceSampled is the flags bit marking a head-sampled context.
const traceSampled = 0x1

func appendTraceCtx(dst []byte, id uint64, ctx otrace.Ctx) []byte {
	dst = appendUvarint(dst, id)
	var flags byte
	if ctx.Sampled {
		flags |= traceSampled
	}
	dst = append(dst, flags)
	dst = appendUvarint(dst, ctx.Hi)
	dst = appendUvarint(dst, ctx.Lo)
	return appendUvarint(dst, ctx.Span)
}

// decodeTraceCtx yields the annotated request ID and the wire context.
// The returned Ctx carries the SENDER's span in Span; the receiver
// derives its own span via Tracer.Child, which moves it to Parent.
func decodeTraceCtx(payload []byte) (id uint64, ctx otrace.Ctx, err error) {
	d := decoder{buf: payload}
	if id, err = d.uvarint(); err != nil {
		return 0, otrace.Ctx{}, err
	}
	if len(d.buf) < 1 {
		return 0, otrace.Ctx{}, errTruncatedTraceCtx
	}
	flags := d.buf[0]
	d.buf = d.buf[1:]
	if ctx.Hi, err = d.uvarint(); err != nil {
		return 0, otrace.Ctx{}, err
	}
	if ctx.Lo, err = d.uvarint(); err != nil {
		return 0, otrace.Ctx{}, err
	}
	if ctx.Span, err = d.uvarint(); err != nil {
		return 0, otrace.Ctx{}, err
	}
	if err = d.done(); err != nil {
		return 0, otrace.Ctx{}, err
	}
	ctx.Sampled = flags&traceSampled != 0
	return id, ctx, nil
}

var errTruncatedTraceCtx = errors.New("fsnet: truncated trace context")
