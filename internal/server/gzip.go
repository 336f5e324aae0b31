package server

import (
	"compress/gzip"
	"io"
	"net/http"
	"strings"

	"riscvsim/internal/api"
)

// gzipResponseWriter compresses the response body.
type gzipResponseWriter struct {
	http.ResponseWriter
	gz *gzip.Writer
}

// Write implements io.Writer over the compressor.
func (w *gzipResponseWriter) Write(b []byte) (int, error) {
	return w.gz.Write(b)
}

// Flush implements http.Flusher passthrough: it drains the compressor's
// buffered output and then flushes the underlying writer. Without this,
// the NDJSON streaming endpoint would buffer behind the compressor until
// the stream ended.
func (w *gzipResponseWriter) Flush() {
	w.gz.Flush()
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// gzipMiddleware compresses responses for clients that accept gzip and
// transparently decompresses gzip request bodies. The paper reports that
// enabling gzip increased local throughput by 40% (§IV-A).
func gzipMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Decompress request bodies when flagged.
		if strings.Contains(r.Header.Get("Content-Encoding"), "gzip") && r.Body != nil {
			gr, err := api.GetGzipReader(r.Body)
			if err != nil {
				http.Error(w, `{"error":{"code":"bad_request","message":"bad gzip body"}}`, http.StatusBadRequest)
				return
			}
			defer api.PutGzipReader(gr)
			r.Body = io.NopCloser(gr)
			r.Header.Del("Content-Encoding")
		}
		// The response varies with the request's Accept-Encoding either
		// way — caches must key on it.
		w.Header().Add("Vary", "Accept-Encoding")
		if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
			next.ServeHTTP(w, r)
			return
		}
		gz := api.GetGzipWriter(w)
		defer api.PutGzipWriter(gz)
		w.Header().Set("Content-Encoding", "gzip")
		next.ServeHTTP(&gzipResponseWriter{ResponseWriter: w, gz: gz}, r)
	})
}
