module Strutil = Hoiho_util.Strutil
module Db = Hoiho_geodb.Db
module City = Hoiho_geodb.City
module Lightrtt = Hoiho_geo.Lightrtt
module Router = Hoiho_itdk.Router
module Rtts = Hoiho_itdk.Rtts
module Dataset = Hoiho_itdk.Dataset
module Vp = Hoiho_itdk.Vp
module Psl = Hoiho_psl.Psl

type rule = {
  suffix : string;
  n_labels : int;
  pos_from_end : int;
  digits_after : bool;
  hint_type : Hoiho.Plan.hint_type;
}

type t = { rules : (string, rule) Hashtbl.t }

let hint_types = [ Hoiho.Plan.Iata; Hoiho.Plan.Clli; Hoiho.Plan.CityName; Hoiho.Plan.Locode ]

let prefix_labels suffix hostname =
  match Strutil.drop_suffix ~suffix hostname with
  | None | Some "" -> None
  (* a malformed prefix (empty label, e.g. "..lhr4") must be skipped:
     splitting it would yield a label array whose length can collide
     with a learned rule's shape and misgeolocate garbage *)
  | Some prefix when Strutil.has_empty_dns_label prefix -> None
  | Some prefix -> Some (Array.of_list (String.split_on_char '.' prefix))

(* delay check against traceroute-observed RTTs only, with a generous
   allowance: DRoP had no follow-up pings and its delay features
   "roughly constrained locations to within a continent" (§3.3) *)
let continental_slack_ms = 25.0

let trace_consistent dataset (r : Router.t) (city : City.t) =
  Rtts.for_all
    (fun vp_id rtt ->
      let vp = Dataset.vp dataset vp_id in
      rtt +. continental_slack_ms >= Lightrtt.min_rtt_ms vp.Vp.coord city.City.coord)
    r.Router.trace_rtts

(* DRoP interprets the leading alphabetic run of a label: it extracted
   "chi" from "chi2ca" (the Cai 2015 example) *)
let leading_alpha label =
  let n = String.length label in
  let rec until i = if i < n && Strutil.is_alpha label.[i] then until (i + 1) else i in
  String.sub label 0 (until 0)

let label_geo db hint_type label =
  let alpha = leading_alpha label in
  if alpha = "" then None
  else
    match Hoiho.Dicts.lookup db hint_type alpha with
    | [] -> None
    | cities -> Some (alpha, cities)

let learn ?(staleness = 0.0) ?(seed = 2013) db dataset =
  let rng = Hoiho_util.Prng.create seed in
  let rules = Hashtbl.create 64 in
  let groups = Dataset.by_suffix dataset in
  List.iter
    (fun (suffix, routers) ->
      let samples =
        List.concat_map
          (fun (r : Router.t) ->
            List.filter_map
              (fun h ->
                match prefix_labels suffix h with
                | Some labels when Psl.registered_suffix h = Some suffix ->
                    Some (r, labels)
                | _ -> None)
              r.Router.hostnames)
          routers
      in
      if samples <> [] then begin
        (* modal label count *)
        let counts = Hashtbl.create 8 in
        List.iter
          (fun (_, labels) ->
            let n = Array.length labels in
            Hashtbl.replace counts n
              (1 + Option.value (Hashtbl.find_opt counts n) ~default:0))
          samples;
        let n_labels, _ =
          Hashtbl.fold
            (fun n c (bn, bc) -> if c > bc then (n, c) else (bn, bc))
            counts (0, 0)
        in
        let shaped = List.filter (fun (_, ls) -> Array.length ls = n_labels) samples in
        (* best (position, hint type) by majority delay consistency *)
        let best = ref None in
        for pos = 0 to n_labels - 1 do
          List.iter
            (fun hint_type ->
              let hits = ref 0 and ok = ref 0 and digits = ref 0 in
              List.iter
                (fun ((r : Router.t), labels) ->
                  let label = labels.(n_labels - 1 - pos) in
                  match label_geo db hint_type label with
                  | None -> ()
                  | Some (alpha, cities) ->
                      incr hits;
                      if String.length label > String.length alpha then incr digits;
                      if List.exists (trace_consistent dataset r) cities then incr ok)
                shaped;
              if !hits > 0 && !ok * 2 > !hits then begin
                let score = !ok in
                match !best with
                | Some (_, _, _, best_score) when best_score >= score -> ()
                | _ ->
                    best := Some (pos, hint_type, !digits * 2 > !hits, score)
              end)
            hint_types
        done;
        match !best with
        | Some (pos_from_end, hint_type, digits_after, _) ->
            if Hoiho_util.Prng.float rng 1.0 >= staleness then
              Hashtbl.replace rules suffix
                { suffix; n_labels; pos_from_end; digits_after; hint_type }
        | None -> ()
      end)
    groups;
  { rules }

let rules t = Hashtbl.fold (fun _ r acc -> r :: acc) t.rules []
let find_rule t suffix = Hashtbl.find_opt t.rules suffix

let infer t db hostname =
  match Psl.registered_suffix hostname with
  | None -> None
  | Some suffix -> (
      match Hashtbl.find_opt t.rules suffix with
      | None -> None
      | Some rule -> (
          match prefix_labels suffix hostname with
          | Some labels when Array.length labels = rule.n_labels -> (
              let label = labels.(rule.n_labels - 1 - rule.pos_from_end) in
              let alpha = leading_alpha label in
              let has_digits = String.length label > String.length alpha in
              (* the single-sequence rule only matches the modal shape *)
              if has_digits <> rule.digits_after then None
              else if alpha = "" then None
              else
                match Hoiho.Dicts.lookup db rule.hint_type alpha with
                | [] -> None
                | cities ->
                    Some
                      (List.fold_left
                         (fun best c ->
                           if c.City.population > best.City.population then c else best)
                         (List.hd cities) cities))
          | _ -> None))
