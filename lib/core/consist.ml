module Coord = Hoiho_geo.Coord
module Lightrtt = Hoiho_geo.Lightrtt
module Router = Hoiho_itdk.Router
module Rtts = Hoiho_itdk.Rtts
module Vp = Hoiho_itdk.Vp
module Dataset = Hoiho_itdk.Dataset

(* measured RTTs are quantized/jittered; allow a small slack so a router
   colocated with a VP is not rejected by sub-ms noise *)
let slack_ms = 0.5

(* Read-only after construction: [t] is shared across the pool's
   domains during a parallel pipeline run, so nothing here may mutate
   shared state after [create] returns. The best-case-RTT memo is
   per-domain (Domain.DLS): each domain fills its own table, which
   costs some duplicated haversines but needs no locking on the
   hottest read path in the system. *)
type t = {
  dataset : Dataset.t;
  vp_by_id : Vp.t array;
  min_rtt_cache : (int * float * float, float) Hashtbl.t Domain.DLS.key;
}

exception Unknown_vp of int

let () =
  Printexc.register_printer (function
    | Unknown_vp id -> Some (Printf.sprintf "Hoiho.Consist.Unknown_vp(%d)" id)
    | _ -> None)

let create dataset =
  let max_id =
    Array.fold_left (fun m (v : Vp.t) -> max m v.Vp.id) 0 dataset.Dataset.vps
  in
  let vp_by_id =
    if Array.length dataset.Dataset.vps = 0 then [||]
    else begin
      let vp_by_id = Array.make (max_id + 1) dataset.Dataset.vps.(0) in
      Array.iter (fun (v : Vp.t) -> vp_by_id.(v.Vp.id) <- v) dataset.Dataset.vps;
      vp_by_id
    end
  in
  {
    dataset;
    vp_by_id;
    min_rtt_cache = Domain.DLS.new_key (fun () -> Hashtbl.create 65536);
  }

let dataset t = t.dataset

(* [vp_by_id] is a dense table seeded with vps.(0) as filler, so a hole
   (an id inside the range that no VP carries) holds a VP whose own id
   disagrees with the slot — both out-of-range and dangling ids get the
   same descriptive, deterministic error instead of a bare
   Invalid_argument from Array indexing *)
let vp_of t id =
  if id < 0 || id >= Array.length t.vp_by_id then raise (Unknown_vp id)
  else
    let v = t.vp_by_id.(id) in
    if v.Vp.id <> id then raise (Unknown_vp id);
    v

(* ping when the router answered any, else what traceroute saw *)
let preferred (r : Router.t) =
  if Rtts.is_empty r.Router.ping_rtts then r.Router.trace_rtts else r.Router.ping_rtts

let router_rtts t r =
  List.rev (Rtts.fold (fun acc id rtt -> (vp_of t id, rtt) :: acc) [] (preferred r))

let best_case t vp_id (loc : Coord.t) =
  let cache = Domain.DLS.get t.min_rtt_cache in
  let key = (vp_id, loc.Coord.lat, loc.Coord.lon) in
  match Hashtbl.find_opt cache key with
  | Some v -> v
  | None ->
      let v = Lightrtt.min_rtt_ms (vp_of t vp_id).Vp.coord loc in
      Hashtbl.replace cache key v;
      v

let location_consistent t (r : Router.t) loc =
  Rtts.for_all (fun vp_id rtt -> rtt +. slack_ms >= best_case t vp_id loc) (preferred r)

type channel = Ping | Trace

let channel_consistent t (r : Router.t) channel loc =
  Rtts.for_all
    (fun vp_id rtt -> rtt +. slack_ms >= best_case t vp_id loc)
    (match channel with Ping -> r.Router.ping_rtts | Trace -> r.Router.trace_rtts)

let city_consistent t r (city : Hoiho_geodb.City.t) =
  location_consistent t r city.Hoiho_geodb.City.coord

let closest_vp_rtt _t (r : Router.t) =
  match Router.min_ping_rtt r with Some (_, rtt) -> Some rtt | None -> None
