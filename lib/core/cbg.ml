module Coord = Hoiho_geo.Coord
module Lightrtt = Hoiho_geo.Lightrtt
module Router = Hoiho_itdk.Router
module Rtts = Hoiho_itdk.Rtts
module Vp = Hoiho_itdk.Vp

type estimate = { center : Coord.t; error_km : float; n_constraints : int }

let estimate consist router =
  match Consist.router_rtts consist router with
  | [] -> None
  | rtts ->
      (* weight each VP by the inverse of its disc radius: a 2 ms
         constraint says far more about the location than a 100 ms one *)
      let weighted =
        List.map
          (fun ((vp : Vp.t), rtt) ->
            let radius = Float.max 1.0 (Lightrtt.max_distance_km ~rtt_ms:rtt) in
            (vp.Vp.coord, radius, 1.0 /. radius))
          rtts
      in
      let wsum = List.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 weighted in
      let lat =
        List.fold_left (fun acc (c, _, w) -> acc +. (c.Coord.lat *. w)) 0.0 weighted
        /. wsum
      in
      let lon =
        (* weighted mean of longitudes is wrong across the antimeridian;
           the tightest constraint dominates in practice, so fold each
           longitude into the frame of the best-constrained VP *)
        let _, ref_lon =
          List.fold_left
            (fun (best_w, best_lon) (c, _, w) ->
              if w > best_w then (w, c.Coord.lon) else (best_w, best_lon))
            (neg_infinity, 0.0) weighted
        in
        let fold l =
          if l -. ref_lon > 180.0 then l -. 360.0
          else if ref_lon -. l > 180.0 then l +. 360.0
          else l
        in
        let raw =
          List.fold_left (fun acc (c, _, w) -> acc +. (fold c.Coord.lon *. w)) 0.0 weighted
          /. wsum
        in
        if raw > 180.0 then raw -. 360.0 else if raw < -180.0 then raw +. 360.0 else raw
      in
      let error_km =
        List.fold_left (fun acc (_, r, _) -> Float.min acc r) infinity weighted
      in
      Some
        {
          center = Coord.make ~lat:(Float.max (-90.) (Float.min 90. lat)) ~lon;
          error_km;
          n_constraints = List.length rtts;
        }

let shortest_ping consist router =
  if Rtts.is_empty router.Router.ping_rtts then None
  else
    Consist.router_rtts consist router
    |> List.fold_left
         (fun best (vp, rtt) ->
           match best with
           | Some (_, best_rtt) when best_rtt <= rtt -> best
           | _ -> Some (vp, rtt))
         None
    |> Option.map fst

let feasible consist router loc = Consist.location_consistent consist router loc

let infeasible_fraction consist pairs =
  Hoiho_util.Stat.fraction (fun (router, loc) -> not (feasible consist router loc)) pairs
