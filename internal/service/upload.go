package service

import (
	"errors"
	"io"
	"math"
	"mime"
	"mime/multipart"
	"net/http"
	"net/url"
	"strconv"

	"github.com/comet-explain/comet/internal/ingest"
	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

// isUploadContentType reports whether a POST /v1/corpus body is a binary
// upload rather than a JSON wire.CorpusRequest.
func isUploadContentType(ct string) bool {
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false
	}
	switch mt {
	case "application/x-elf", "application/octet-stream", "multipart/form-data":
		return true
	}
	return false
}

// handleCorpusUpload serves the binary-upload mode of POST /v1/corpus:
// the body is an x86-64 ELF binary (raw, or the first file part of a
// multipart form), its basic blocks are extracted server-side, and the
// resulting corpus enters the same async job pipeline as a JSON corpus
// request. Job parameters arrive as query parameters since the body is
// the binary itself:
//
//	POST /v1/corpus?model=uica&arch=hsw&workers=4&stream=true&seed=1&coverage=1000
//
// seed, coverage, epsilon, threshold and batch are the fields of the
// config overrides a JSON request carries inline.
//
// Extraction is deterministic, so uploading a binary and running
// `comet -corpus elf:...` with the same model and config produce
// byte-identical explanations: on a store-backed server the job writes
// each block under the content address the CLI's -store run reads.
func (s *Server) handleCorpusUpload(w http.ResponseWriter, r *http.Request) error {
	// A bad parameter is answered before the body is read and decoded.
	q := r.URL.Query()
	workers, stream, overrides, err := uploadParams(q)
	if err != nil {
		return err
	}
	j, err := s.prepareCorpusJob(q.Get("model"), q.Get("arch"), overrides, workers, stream)
	if err != nil {
		return err
	}
	data, err := s.readUpload(w, r)
	if err != nil {
		return err
	}
	if !ingest.IsELF(data) {
		return errorf(http.StatusBadRequest, "upload is not an ELF binary (bad magic)")
	}

	// The extraction stage joins the request's span tree, so per-binary
	// ingest timing shows up in /debug/traces alongside job execution.
	_, span := obs.StartSpan(r.Context(), "ingest.extract")
	res, err := ingest.ExtractBytes(data, ingest.Options{})
	if err != nil {
		span.SetErr(err)
		span.End()
		s.metrics.ingestRejected.Add(1)
		return errorf(http.StatusBadRequest, "%v", err)
	}
	st := res.Stats
	span.SetInt("sections", int64(st.Sections))
	span.SetInt("bytes", int64(st.Bytes))
	span.SetInt("blocks", int64(st.Blocks))
	span.SetInt("deduped", int64(st.Deduped))
	span.SetInt("unsupported", int64(st.Unsupported))
	span.End()

	s.metrics.ingestBinaries.Add(1)
	s.metrics.ingestSections.Add(uint64(st.Sections))
	s.metrics.ingestBytes.Add(uint64(st.Bytes))
	s.metrics.ingestBlocks.Add(uint64(st.Blocks))
	s.metrics.ingestDeduped.Add(uint64(st.Deduped))
	s.metrics.ingestSkipped.Add(uint64(st.Unsupported))

	if len(res.Blocks) == 0 {
		return errorf(http.StatusBadRequest, "binary contains no supported basic blocks (%s)", st)
	}
	if len(res.Blocks) > s.cfg.MaxCorpusBlocks {
		return errorf(http.StatusRequestEntityTooLarge, "binary yields %d blocks, exceeding the limit of %d", len(res.Blocks), s.cfg.MaxCorpusBlocks)
	}

	blocks := make([]*x86.BasicBlock, len(res.Blocks))
	for i, b := range res.Blocks {
		blocks[i] = b.Block
	}

	s.log.Info("corpus upload ingested",
		"upload_bytes", len(data), "stats", st.String())
	return s.submitCorpusJob(w, r, j, blocks)
}

// uploadParams parses the upload's numeric and boolean query
// parameters: the worker count, the stream flag and the config
// overrides. A malformed value is a 400.
func uploadParams(q url.Values) (workers int, stream bool, o *wire.ConfigOverrides, err error) {
	o = &wire.ConfigOverrides{}
	finite := func(v string) (float64, error) {
		f, err := strconv.ParseFloat(v, 64)
		if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
			err = strconv.ErrSyntax
		}
		return f, err
	}
	for _, p := range []struct {
		name  string
		parse func(string) error
	}{
		{"workers", func(v string) (err error) { workers, err = strconv.Atoi(v); return }},
		{"stream", func(v string) (err error) { stream, err = strconv.ParseBool(v); return }},
		{"seed", func(v string) (err error) { o.Seed, err = strconv.ParseInt(v, 10, 64); return }},
		{"coverage", func(v string) (err error) { o.CoverageSamples, err = strconv.Atoi(v); return }},
		{"epsilon", func(v string) (err error) { o.Epsilon, err = finite(v); return }},
		{"threshold", func(v string) (err error) { o.PrecisionThreshold, err = finite(v); return }},
		{"batch", func(v string) (err error) { o.BatchSize, err = strconv.Atoi(v); return }},
	} {
		if v := q.Get(p.name); v != "" && p.parse(v) != nil {
			return 0, false, nil, errorf(http.StatusBadRequest, "bad %s %q", p.name, v)
		}
	}
	return workers, stream, o, nil
}

// readUpload reads the binary body under the MaxUploadBytes cap; an
// oversized upload fails with 413. Multipart bodies contribute their
// first file part.
func (s *Server) readUpload(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var body io.Reader = http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	if mt, params, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); mt == "multipart/form-data" {
		if params["boundary"] == "" {
			return nil, errorf(http.StatusBadRequest, "multipart upload without boundary")
		}
		mr := multipart.NewReader(body, params["boundary"])
		for {
			part, err := mr.NextPart()
			if err == io.EOF {
				return nil, errorf(http.StatusBadRequest, "multipart upload has no file part")
			}
			if err != nil {
				return nil, s.uploadReadError(err)
			}
			if part.FileName() != "" {
				body = part
				break
			}
		}
	}
	data, err := io.ReadAll(body)
	if err != nil {
		return nil, s.uploadReadError(err)
	}
	return data, nil
}

// uploadReadError maps a body-read failure to 413 (limit exceeded) or
// 400.
func (s *Server) uploadReadError(err error) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.metrics.ingestRejected.Add(1)
		return errorf(http.StatusRequestEntityTooLarge,
			"upload exceeds %d bytes (raise -max-upload-bytes to accept larger binaries)", tooBig.Limit)
	}
	return errorf(http.StatusBadRequest, "bad upload body: %v", err)
}
