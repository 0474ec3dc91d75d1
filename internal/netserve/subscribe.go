// POST /v1/subscribe: standing queries on the wire. The response is a
// streaming NDJSON feed of notification events — KindInit with the
// initial kNN view, then one line per view change (or per radius match)
// for as long as the client stays connected. The stream obeys the
// server's drain discipline: Drain ends every open stream before the
// engine closes, and a slow reader loses intermediate events (visible
// via seq gaps and the dropped counter), never stream integrity —
// every kNN line carries the complete current view.
package netserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"pimmine/internal/standing"
)

// SubscribeRequest is the body of POST /v1/subscribe. Exactly one of K
// (a standing kNN query) and Radius (a match watch on future inserts)
// must be set.
type SubscribeRequest struct {
	Tenant string    `json:"tenant,omitempty"`
	Query  []float64 `json:"query"`
	// K registers a standing k-nearest-neighbor query, 1..MaxK.
	K int `json:"k,omitempty"`
	// Radius registers a radius watch: an event per future insert within
	// this Euclidean distance of Query.
	Radius float64 `json:"radius,omitempty"`
	// MaxEvents, when positive, closes the stream after that many
	// delivered events — for bounded consumers and tests; zero streams
	// until disconnect or drain.
	MaxEvents int `json:"max_events,omitempty"`
}

// EventLine is one NDJSON line of the subscription stream. Trigger and
// Dist have no omitempty: id 0 is a valid trigger and 0 a valid
// distance.
type EventLine struct {
	// Seq is the per-subscription sequence number, counting generated
	// events including dropped ones — a gap means the consumer was slow.
	Seq  int    `json:"seq"`
	Kind string `json:"kind"` // "init", "update" or "match"
	// Trigger is the global id that caused the event (-1 for init).
	Trigger int     `json:"trigger"`
	Dist    float64 `json:"dist"`
	// Neighbors is the full current kNN view (absent on radius matches).
	Neighbors []NeighborWire `json:"neighbors,omitempty"`
	// Dropped is the subscription's cumulative dropped-event count at
	// emit time.
	Dropped int64 `json:"dropped,omitempty"`
}

// DecodeSubscribeRequest parses and validates a subscribe body. Pure in
// (data, dims, maxK), like the other wire decoders.
func DecodeSubscribeRequest(data []byte, dims, maxK int) (*SubscribeRequest, error) {
	var req SubscribeRequest
	s := scanner{data: data, dims: dims}
	err := s.object(field{"tenant", &req.Tenant}, field{"query", &req.Query}, field{"k", &req.K},
		field{"radius", &req.Radius}, field{"max_events", &req.MaxEvents})
	if err == nil {
		err = req.validate(dims, maxK)
	}
	if err != nil {
		return nil, err
	}
	return &req, nil
}

func (req *SubscribeRequest) validate(dims, maxK int) error {
	switch {
	case req.K > 0 && req.Radius != 0:
		return fmt.Errorf("%w: set exactly one of k and radius", ErrBadRequest)
	case req.K > 0:
		if err := checkK(req.K, maxK); err != nil {
			return err
		}
	case req.Radius > 0:
		// JSON cannot carry NaN/Inf, so a decoded positive radius is
		// finite by construction.
	default:
		return fmt.Errorf("%w: set exactly one of k and radius", ErrBadRequest)
	}
	if req.MaxEvents < 0 {
		return fmt.Errorf("%w: max_events must be >= 0", ErrBadRequest)
	}
	return checkQuery(req.Query, dims)
}

// eventLine converts a standing event to its wire form.
func eventLine(ev standing.Event, dropped int64) EventLine {
	return EventLine{
		Seq:       ev.Seq,
		Kind:      ev.Kind.String(),
		Trigger:   ev.Trigger,
		Dist:      ev.Dist,
		Neighbors: toWire(ev.Result),
		Dropped:   dropped,
	}
}

// handleSubscribe answers POST /v1/subscribe. The subscription does not
// hold a fair-queue slot — a stream lives indefinitely and must not
// pin query concurrency — but it registers against drain like any
// request, so Drain waits for the stream to notice drainCh and exit
// before the engine closes.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	done, ok := s.begin()
	if !ok {
		s.writeError(w, ErrDraining, 0)
		return
	}
	defer done()
	body, err := s.readBody(w, r)
	if err != nil {
		s.writeError(w, err, 0)
		return
	}
	req, err := DecodeSubscribeRequest(body, s.eng.Dims(), s.opts.MaxK)
	if err != nil {
		s.writeError(w, err, 0)
		return
	}
	tenant := tenantOf(r, req.Tenant)
	s.nobs.noteRequest(tenant)
	var sub *standing.Subscription
	if req.K > 0 {
		sub, err = s.sub.SubscribeKNN(req.Query, req.K)
	} else {
		sub, err = s.sub.SubscribeRadius(req.Query, req.Radius)
	}
	if err != nil {
		s.nobs.noteRejected(tenant, VerdictFor(err).Code)
		s.writeError(w, err, 0)
		return
	}
	defer s.sub.Unsubscribe(sub.ID())

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush() // client sees acceptance before the first event
	}
	enc := json.NewEncoder(w)
	start := time.Now()
	sent := 0
	for {
		select {
		case ev, open := <-sub.Events():
			if !open {
				// Engine/registry closed underneath us.
				s.nobs.noteOK(tenant, time.Since(start).Seconds())
				return
			}
			if err := enc.Encode(eventLine(ev, sub.Dropped())); err != nil {
				return // client went away mid-write
			}
			if flusher != nil {
				flusher.Flush()
			}
			sent++
			if req.MaxEvents > 0 && sent >= req.MaxEvents {
				s.nobs.noteOK(tenant, time.Since(start).Seconds())
				return
			}
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			s.nobs.noteOK(tenant, time.Since(start).Seconds())
			return
		}
	}
}
