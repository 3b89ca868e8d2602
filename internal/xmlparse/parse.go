// Package xmlparse converts XML text into XDM trees. It resolves
// namespace prefixes to URIs at parse time (the engine stores expanded
// names only), preserves comments and processing instructions, and keeps
// adjacent character data as distinct text nodes exactly where the input
// had markup boundaries — a distinction §3.8 of the paper depends on.
package xmlparse

import (
	"errors"
	"fmt"
	"strings"

	"github.com/xqdb/xqdb/internal/xdm"
)

// ErrLimit marks parse failures caused by a resource limit (nesting depth
// or document size) rather than malformed input; guard layers classify it
// as a limit violation.
var ErrLimit = errors.New("parse limit exceeded")

// Default parse bounds. Every parse enforces these even without explicit
// Limits, so a hostile document cannot blow the stack or exhaust memory
// through pathological nesting.
const (
	DefaultMaxDepth = 4096
	DefaultMaxBytes = 256 << 20
)

// Limits bounds document parsing. A zero field falls back to the package
// default above.
type Limits struct {
	MaxDepth int // maximum element nesting depth
	MaxBytes int // maximum input size in bytes
}

func (l Limits) depth() int {
	if l.MaxDepth > 0 {
		return l.MaxDepth
	}
	return DefaultMaxDepth
}

func (l Limits) bytes() int {
	if l.MaxBytes > 0 {
		return l.MaxBytes
	}
	return DefaultMaxBytes
}

// Parse parses one XML document and returns its document node.
// White-space-only text between elements is dropped, which mirrors
// typical database ingestion with boundary-whitespace stripping.
func Parse(input string) (*xdm.Node, error) {
	return ParseLimited(input, Limits{})
}

// ParseLimited parses with explicit resource limits; limit failures wrap
// ErrLimit. The input's length is known up front, so an oversized
// document is refused before any of it is scanned.
func ParseLimited(input string, lim Limits) (*xdm.Node, error) {
	if len(input) > lim.bytes() {
		return nil, fmt.Errorf("xml parse: document is %d bytes (max %d): %w", len(input), lim.bytes(), ErrLimit)
	}
	return newParser(len(input)).Parse(strings.NewReader(input), lim)
}
