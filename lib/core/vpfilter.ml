module Coord = Hoiho_geo.Coord
module Lightrtt = Hoiho_geo.Lightrtt
module Dataset = Hoiho_itdk.Dataset
module Router = Hoiho_itdk.Router
module Rtts = Hoiho_itdk.Rtts
module Vp = Hoiho_itdk.Vp

(* discs of radius r1 around u and r2 around v intersect iff
   d(u,v) <= r1 + r2 *)
let discs_intersect (u : Vp.t) r1 (v : Vp.t) r2 =
  Coord.distance_km u.Vp.coord v.Vp.coord
  <= Lightrtt.max_distance_km ~rtt_ms:r1 +. Lightrtt.max_distance_km ~rtt_ms:r2

let vp_by_id ds =
  let tbl = Hashtbl.create 128 in
  Array.iter (fun (v : Vp.t) -> Hashtbl.replace tbl v.Vp.id v) ds.Dataset.vps;
  tbl

let compatibility ds ?(sample = 500) vp_id =
  let vps = vp_by_id ds in
  let scores = ref [] in
  let seen = ref 0 in
  (try
     Array.iter
       (fun (r : Router.t) ->
         if !seen >= sample then raise Exit;
         match Rtts.find_opt vp_id r.Router.ping_rtts with
         | None -> ()
         | Some my_rtt ->
             let u = Hashtbl.find vps vp_id in
             (* (samples from other VPs, those whose disc meets u's) *)
             let others, ok =
               Rtts.fold
                 (fun (others, ok) id rtt ->
                   if id = vp_id then (others, ok)
                   else
                     match Hashtbl.find_opt vps id with
                     | Some v when discs_intersect u my_rtt v rtt -> (others + 1, ok + 1)
                     | _ -> (others + 1, ok))
                 (0, 0) r.Router.ping_rtts
             in
             if others > 0 then begin
               incr seen;
               scores := (float_of_int ok /. float_of_int others) :: !scores
             end)
       ds.Dataset.routers
   with Exit -> ());
  Hoiho_util.Stat.mean !scores

let detect ?(threshold = 0.8) ?sample ds =
  Array.to_list ds.Dataset.vps
  |> List.filter_map (fun (v : Vp.t) ->
         if compatibility ds ?sample v.Vp.id < threshold then Some v.Vp.id
         else None)

let strip ds bad =
  let keep = Rtts.filter (fun id _ -> not (List.mem id bad)) in
  Dataset.make ~label:ds.Dataset.label ~links:ds.Dataset.links
    ~routers:
      (Array.map
         (fun (r : Router.t) ->
           {
             r with
             Router.ping_rtts = keep r.Router.ping_rtts;
             trace_rtts = keep r.Router.trace_rtts;
           })
         ds.Dataset.routers)
    ~vps:ds.Dataset.vps ()
