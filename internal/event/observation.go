package event

import (
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// Observation is a physical observation O(MT_id, SR_id, i){t°, l°, V}
// (Eq. 5.2): a snapshot of the attribute, temporal, or spatial status of a
// physical event, made by sensor SR installed on sensor mote MT as the
// i-th observation. A sensor alone is not an observer (Def. 4.3) — it
// cannot evaluate conditions — so observations are raw inputs to the
// sensor mote's evaluation, not event instances.
type Observation struct {
	// Mote is the sensor mote identifier MT_id.
	Mote string `json:"mote"`
	// Sensor is the sensor identifier SR_id.
	Sensor string `json:"sensor"`
	// Seq is the observation sequence number i.
	Seq uint64 `json:"seq"`
	// Time is the observation occurrence time t° (sampling timestamp).
	Time timemodel.Time `json:"time"`
	// Loc is the observation occurrence location l° (spacestamp).
	Loc spatial.Location `json:"loc"`
	// Attrs is the observed attribute set V.
	Attrs Attrs `json:"attrs,omitempty"`
}

// EntityID implements Entity using the paper's O(MT,SR,i) notation.
func (o Observation) EntityID() string {
	return entityID('O', o.Mote, o.Sensor, o.Seq)
}

// OccTime implements Entity.
func (o Observation) OccTime() timemodel.Time { return o.Time }

// OccLoc implements Entity.
func (o Observation) OccLoc() spatial.Location { return o.Loc }

// Attr implements Entity.
func (o Observation) Attr(name string) (float64, bool) {
	v, ok := o.Attrs[name]
	return v, ok
}

var _ Entity = Observation{}
