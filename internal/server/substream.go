package server

import (
	"encoding/binary"
	"fmt"
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
	out := append([]byte{}, nodeMagic...)
	out = binary.LittleEndian.AppendUint16(out, nodeVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(poolBlob)))
	out = append(out, poolBlob...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(regBlob)))
	out = append(out, regBlob...)
	return out
}

// DecodeNodeState splits a node state blob into its pool and registry
// parts. A blob that does not carry the container magic is an
// old-style raw pool blob and is returned as (blob, nil, nil).
func DecodeNodeState(blob []byte) (poolBlob, regBlob []byte, err error) {
	if len(blob) < len(nodeMagic) || string(blob[:len(nodeMagic)]) != nodeMagic {
		return blob, nil, nil
	}
	p := blob[len(nodeMagic):]
	if len(p) < 2 {
		return nil, nil, fmt.Errorf("server: node state header truncated")
	}
	if v := binary.LittleEndian.Uint16(p); v != nodeVersion {
		return nil, nil, fmt.Errorf("server: unsupported node state version %d", v)
	}
	p = p[2:]
	take := func(what string) ([]byte, error) {
		if len(p) < 4 {
			return nil, fmt.Errorf("server: node state %s length truncated", what)
		}
		n := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if n > len(p) {
			return nil, fmt.Errorf("server: node state %s truncated (%d of %d bytes)", what, len(p), n)
		}
		b := p[:n]
		p = p[n:]
		return b, nil
	}
	if poolBlob, err = take("pool blob"); err != nil {
		return nil, nil, err
	}
	if regBlob, err = take("registry blob"); err != nil {
		return nil, nil, err
	}
	if len(p) != 0 {
		return nil, nil, fmt.Errorf("server: %d trailing bytes after node state", len(p))
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
