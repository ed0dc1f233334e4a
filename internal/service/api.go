package service

import (
	"net/http"

	"github.com/comet-explain/comet"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/wire"
)

// handlePredict serves POST /v1/predict, the batch cost-model endpoint
// that makes this server a queryable backend for remote explainers. An
// empty block list is the discovery handshake: it resolves (warming if
// necessary) the requested model and returns its identity without
// predictions. Predictions flow through the entry's shared prediction
// cache, so queries repeated across clients — or already answered for a
// local explanation — cost no model work.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request, in inbound) error {
	req, err := decodeRequest[wire.PredictRequest](s, w, r, in)
	if err != nil {
		return err
	}
	blocks, err := s.parseBlocks(nil, req.Blocks...)
	if err != nil {
		return err
	}
	entry, err := s.resolveModel(req.Model, req.Arch)
	if err != nil {
		return err
	}
	if span := obs.SpanFromContext(r.Context()); span != nil {
		span.Set("spec", entry.specString())
		span.SetInt("blocks", int64(len(blocks)))
	}

	preds := make([]float64, len(blocks))
	if len(blocks) > 0 {
		// Real compute shares the explain slots, so predict traffic and
		// explain traffic are backpressured by one budget.
		if err := s.acquireExplainSlot(); err != nil {
			return errorf(http.StatusTooManyRequests, "%v", err)
		}
		err := func() (err error) {
			defer s.releaseExplainSlot()
			// A chained backend (this entry itself being a remote model)
			// aborts unanswerable queries; surface that as a gateway error
			// instead of crashing the handler.
			defer costmodel.RecoverQuery(&err)
			costmodel.PredictThrough(entry.cache, entry.model, blocks, s.cfg.Base.BatchSize, 0, preds)
			return nil
		}()
		if err != nil {
			return errorf(http.StatusBadGateway, "backend predict failed: %v", err)
		}
		s.metrics.predictions.Add(uint64(len(blocks)))
	}
	writeNegotiated(w, in.binResp, http.StatusOK, &wire.PredictResponse{
		Model:       entry.model.Name(),
		Arch:        wire.ArchName(entry.model.Arch()),
		Spec:        entry.specString(),
		Epsilon:     entry.epsilon,
		Predictions: preds,
	})
	return nil
}

// handleModels serves GET /v1/models: the registered model families from
// the comet registry (specs, default configs, ε) plus the canonical specs
// this server has already warmed.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request, _ inbound) error {
	defs := comet.RegisteredModels()
	infos := make([]wire.ModelInfo, len(defs))
	for i, def := range defs {
		info := wire.ModelInfo{
			Name:        def.Name,
			Aliases:     def.Aliases,
			Description: def.Description,
			Spec:        def.DefaultSpec(),
			Epsilon:     def.Epsilon,
		}
		for _, p := range def.ParamDefaults() {
			info.Defaults = append(info.Defaults, wire.ModelParam{Key: p.Key, Value: p.Value})
		}
		infos[i] = info
	}
	writeJSON(w, http.StatusOK, wire.ModelsResponse{
		Models: infos,
		Warmed: s.models.warmedSpecs(),
	})
	return nil
}
