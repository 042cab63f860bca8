package server

import (
	"encoding/binary"
	"fmt"

	"repro/internal/blob"
)

// Node state container, "hprng-node" v1:
//
//	magic "hprng-node" | u16 version | u32-len pool blob | u32-len registry blob
//
// A registry-less server keeps writing the raw pool blob ("hprng-pool"),
// so every existing snapshot file, drain relay and fleet drill decodes
// unchanged; the container appears only when Options.Substreams is set,
// and DecodeNodeState passes raw pool blobs through untouched — one
// decode path accepts both generations of state.
const (
	nodeMagic   = "hprng-node"
	nodeVersion = 1
)

// EncodeNodeState wraps a pool blob and a substream registry blob
// into the composite node container.
func EncodeNodeState(poolBlob, regBlob []byte) []byte {
	out := binary.LittleEndian.AppendUint16([]byte(nodeMagic), nodeVersion)
	return blob.AppendBytes32(blob.AppendBytes32(out, poolBlob), regBlob)
}

// DecodeNodeState splits a node state blob into its pool and registry
// parts. A blob that does not carry the container magic is an
// old-style raw pool blob and is returned as (data, nil, nil).
func DecodeNodeState(data []byte) (poolBlob, regBlob []byte, err error) {
	r := blob.NewReader(data, "server: node state")
	if !r.Magic(nodeMagic) {
		return data, nil, nil
	}
	if v := r.Uint16(); r.Err() == nil && v != nodeVersion {
		return nil, nil, fmt.Errorf("server: unsupported node state version %d", v)
	}
	poolBlob, regBlob = r.Bytes32(), r.Bytes32()
	if err := r.Done(); err != nil {
		return nil, nil, err
	}
	return poolBlob, regBlob, nil
}

// nodeState marshals everything a successor needs: the raw pool blob
// when no registry is configured (the pre-substream format, kept so
// registry-less fleets interoperate), otherwise the composite
// container with the registry state alongside. Callers hold snapMu.
func (s *Server) nodeState() ([]byte, error) {
	poolBlob, err := s.pool.MarshalBinary()
	if err != nil {
		return nil, err
	}
	if s.sub == nil {
		return poolBlob, nil
	}
	regBlob, err := s.sub.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("checkpoint substream registry: %w", err)
	}
	return EncodeNodeState(poolBlob, regBlob), nil
}
