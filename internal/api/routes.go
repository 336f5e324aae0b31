package api

import "net/http"

// Placement says which replica of a routed deployment serves a route
// (docs/deployment.md "The router").
type Placement int

const (
	// Stateless routes carry everything they need: any replica serves
	// them, and the router deals them out round-robin.
	Stateless Placement = iota
	// Create routes open a session: the router draws the session's ID and
	// sends the request to that ID's owner (SessionIDHeader).
	Create
	// The Session placements act on an existing session and go to its
	// owner; they differ in where the request carries the session ID.
	SessionInBody  // "sessionId" of the JSON body
	SessionInQuery // ?session=
	SessionInPath  // the {id} path segment
)

// Route is one row of the v1 URL table.
type Route struct {
	Method string
	Path   string // below V1Prefix, in http.ServeMux pattern syntax
	Place  Placement
	// Stream marks an NDJSON reply paced by the simulation: it is relayed
	// as it arrives and is exempt from request deadlines.
	Stream bool
	// Ends marks the route whose 2xx reply ends its session.
	Ends bool
}

// Pattern is the route's method-scoped http.ServeMux pattern.
func (rt Route) Pattern() string { return rt.Method + " " + V1Prefix + rt.Path }

// Routes is the v1 URL space, stated once: the server attaches a handler
// to every row and refuses to start with a row or a handler left over, and
// the router places every row's requests from it — so a route cannot be
// added to one side and misrouted by the other. (The /health liveness
// probe is not a request and is not listed.)
var Routes = []Route{
	{Method: http.MethodPost, Path: "/simulate"},
	{Method: http.MethodPost, Path: "/batch"},
	{Method: http.MethodPost, Path: "/suite"},
	{Method: http.MethodPost, Path: "/compile"},
	{Method: http.MethodPost, Path: "/parseAsm"},
	{Method: http.MethodPost, Path: "/checkConfig"},
	{Method: http.MethodGet, Path: "/schema"},
	{Method: http.MethodGet, Path: "/instructionDescriptions"},
	{Method: http.MethodGet, Path: "/metrics"},
	{Method: http.MethodPost, Path: "/session/new", Place: Create},
	{Method: http.MethodPost, Path: "/session/restore", Place: Create},
	{Method: http.MethodPost, Path: "/session/step", Place: SessionInBody},
	{Method: http.MethodPost, Path: "/session/goto", Place: SessionInBody},
	{Method: http.MethodPost, Path: "/session/checkpoint", Place: SessionInBody},
	{Method: http.MethodPost, Path: "/session/close", Place: SessionInBody, Ends: true},
	{Method: http.MethodGet, Path: "/session/render", Place: SessionInQuery},
	{Method: http.MethodGet, Path: "/session/{id}/log", Place: SessionInPath},
	// The two streams take a whole SimulateRequest and open no session.
	{Method: http.MethodPost, Path: "/session/stream", Stream: true},
	{Method: http.MethodPost, Path: "/session/trace", Stream: true},
}
