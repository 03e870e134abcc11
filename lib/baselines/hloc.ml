module Strutil = Hoiho_util.Strutil
module Db = Hoiho_geodb.Db
module City = Hoiho_geodb.City
module Coord = Hoiho_geo.Coord
module Lightrtt = Hoiho_geo.Lightrtt
module Router = Hoiho_itdk.Router
module Rtts = Hoiho_itdk.Rtts
module Dataset = Hoiho_itdk.Dataset
module Vp = Hoiho_itdk.Vp
module Psl = Hoiho_psl.Psl

let blocklist =
  [
    "gig"; "eth"; "cpe"; "dns"; "mail"; "adsl"; "atlas"; "voda"; "telecom";
    "netsol"; "media"; "level"; "vpn"; "mgmt"; "static"; "dyn"; "cust";
    "core"; "edge"; "peer"; "transit"; "host"; "node"; "wan"; "lan"; "colo";
  ]

let vps_consulted = 3

let hint_types = [ Hoiho.Plan.Iata; Hoiho.Plan.Locode; Hoiho.Plan.Clli; Hoiho.Plan.CityName ]

(* candidate verification: only the nearest pingable VPs are consulted,
   so a distant VP can never contradict the candidate *)
let verify dataset (router : Router.t) (city : City.t) =
  match Rtts.to_list router.Router.ping_rtts with
  | [] -> None
  | rtts ->
      let with_dist =
        List.map
          (fun (vp_id, rtt) ->
            let vp = Dataset.vp dataset vp_id in
            (Coord.distance_km vp.Vp.coord city.City.coord, vp, rtt))
          rtts
      in
      let nearest =
        List.sort (fun (a, _, _) (b, _, _) -> compare a b) with_dist
        |> List.filteri (fun i _ -> i < vps_consulted)
      in
      let ok =
        List.for_all
          (fun (_, (vp : Vp.t), rtt) ->
            rtt +. 0.5 >= Lightrtt.min_rtt_ms vp.Vp.coord city.City.coord)
          nearest
      in
      if not ok then None
      else
        (* confidence: smallest RTT among the consulted VPs *)
        Some (List.fold_left (fun acc (_, _, rtt) -> Float.min acc rtt) infinity nearest)

let infer db dataset router hostname =
  match Psl.registered_suffix hostname with
  | None -> None
  | Some suffix -> (
      match Strutil.drop_suffix ~suffix hostname with
      | None | Some "" -> None
      (* skip malformed prefixes (empty labels): keyword extraction on
         "lhr4." would still find "lhr" and misgeolocate a name that is
         not a well-formed hostname at all *)
      | Some prefix when Strutil.has_empty_dns_label prefix -> None
      | Some prefix ->
          let tokens =
            Strutil.split_punct prefix
            |> List.filter_map (fun tok ->
                   let alpha = Strutil.strip_trailing_digits (Strutil.strip_leading_digits tok) in
                   if String.length alpha >= 3 && String.for_all Strutil.is_alpha alpha
                      && not (List.mem alpha blocklist)
                   then Some alpha
                   else None)
          in
          let candidates =
            List.concat_map
              (fun tok ->
                List.concat_map
                  (fun ht -> Hoiho.Dicts.lookup db ht tok)
                  hint_types)
              tokens
          in
          let verified =
            List.filter_map
              (fun city ->
                match verify dataset router city with
                | Some confidence -> Some (confidence, city)
                | None -> None)
              candidates
          in
          (match List.sort (fun (a, _) (b, _) -> compare a b) verified with
          | (_, best) :: _ -> Some best
          | [] -> None))
