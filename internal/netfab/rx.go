package netfab

// The receive path as a resumable state machine.
//
// Every peer stream owns an rxStream: the framer and the scratch frame.
// Pumping the machine is identical whether the bytes come from a blocking
// conn (fallback goroutine, one per stream — in-memory pipes and
// platforms without a poller) or from a nonblocking fd driven by the
// process-wide poller: the only difference is that the nonblocking reader
// returns errWouldBlock where the blocking one parks, and the machine
// simply stops mid-stride and resumes on the next readiness event.

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/wire"
)

// errWouldBlock is the sentinel a nonblocking reader returns when the fd
// has no bytes ready; the poller parks the stream until the next
// readiness event instead of treating it as a stream error.
var errWouldBlock = errors.New("netfab: read would block")

// rxStream is one peer stream's receive state, safe to abandon and resume
// at any reader would-block point.
type rxStream struct {
	p    *peer
	r    io.Reader // fdReader (poller) or the conn itself (fallback)
	fram *wire.Framer
	fr   wire.Frame // scratch: the decoded body

	sinceRead int // frames completed since the last counted read
	dead      bool
}

func newRxStream(p *peer, r io.Reader) *rxStream {
	return &rxStream{p: p, r: r, fram: wire.NewFramer(rxBufSize)}
}

// drain pumps s until its reader would block (poller mode: park until the
// next readiness event) or the stream ends, which it classifies through
// streamEnded. It reports whether the stream is still alive.
func (m *Mesh) drain(s *rxStream) bool {
	err := m.pump(s)
	if err == errWouldBlock {
		return true
	}
	s.dead = true
	m.streamEnded(s.p, err)
	return false
}

// pump advances s's state machine: parse buffered frames, read more when
// the buffer runs dry. It returns only on a reader error (errWouldBlock
// from a nonblocking reader, EOF or a real error otherwise) or a protocol
// error; it never returns nil.
func (m *Mesh) pump(s *rxStream) error {
	p := s.p
	fram := s.fram
	for {
		body, err := fram.Next()
		if err != nil {
			return fmt.Errorf("netfab: bad frame from rank %d: %w", p.rank, err)
		}
		if body == nil {
			if _, err := fram.Fill(s.r); err != nil {
				return err // errWouldBlock: sinceRead carries to the resume
			}
			m.rxReads.Add(1)
			m.rxCoalesce[coalesceBucket(s.sinceRead)].Add(1)
			s.sinceRead = 0
			continue
		}
		if err := wire.Decode(body, &s.fr); err != nil {
			return fmt.Errorf("netfab: undecodable frame from rank %d: %w", p.rank, err)
		}
		s.sinceRead++
		m.framesRecv.Add(1)
		m.bytesRecv.Add(uint64(wire.LengthPrefix + len(body)))
		if s.fr.Kind == wire.KindBye {
			m.noteBye(p)
			continue // keep draining: data may still arrive until FIN
		}
		if m.rx != nil {
			m.rx(p.rank, &s.fr)
		}
	}
}

// readLoop is the fallback rx driver for streams the poller cannot take
// (in-memory pipes, platforms without one): a blocking goroutine per
// stream pumping the same state machine the poller drives.
func (m *Mesh) readLoop(s *rxStream) {
	defer m.readersWG.Done()
	m.drain(s)
}
