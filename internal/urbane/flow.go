package urbane

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/data"
)

// FlowViewRequest drives the taxi-flow view: the origin-destination matrix
// of a trip data set over a region layer, under the usual ad-hoc filters.
// The data set must carry destination columns (data.DropoffXAttr/YAttr).
type FlowViewRequest struct {
	// Selection names the trips and the layer; flows are always counted, so
	// its Agg and Attr are not read.
	Selection
	// Top caps the returned edges (0 = 20).
	Top int
}

// FlowEdge is one ranked OD pair.
type FlowEdge struct {
	FromID int    `json:"fromId"`
	ToID   int    `json:"toId"`
	From   string `json:"from"`
	To     string `json:"to"`
	Count  int64  `json:"count"`
}

// FlowView is the flow view payload: the strongest flows plus totals.
type FlowView struct {
	Edges   []FlowEdge `json:"edges"`
	Total   int64      `json:"total"`
	Dropped int64      `json:"dropped"`
	Timing
}

// FlowViewContext computes the OD matrix with the raster flow join and
// returns the top edges.
func (f *Framework) FlowViewContext(ctx context.Context, req FlowViewRequest) (*FlowView, error) {
	sel := req.Selection
	sel.Agg, sel.Attr = core.Count, ""
	creq, err := f.resolve(sel, nil)
	if err != nil {
		return nil, err
	}
	rs := creq.Regions
	top := req.Top
	if top <= 0 {
		top = 20
	}
	start := time.Now()
	res, err := f.rasterJoiner().FlowJoinContext(ctx, creq, data.DropoffXAttr, data.DropoffYAttr)
	if err != nil {
		return nil, err
	}
	view := &FlowView{Total: res.Total(), Dropped: res.Dropped}
	view.Elapsed = time.Since(start)
	for _, fl := range res.Top(top) {
		view.Edges = append(view.Edges, FlowEdge{
			FromID: rs.Regions[fl.From].ID,
			ToID:   rs.Regions[fl.To].ID,
			From:   rs.Regions[fl.From].Name,
			To:     rs.Regions[fl.To].Name,
			Count:  fl.Count,
		})
	}
	return view, nil
}
