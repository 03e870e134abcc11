module Tbg = Hoiho.Tbg
module Consist = Hoiho.Consist
module Pipeline = Hoiho.Pipeline
module Router = Hoiho_itdk.Router
module City = Hoiho_geodb.City

let tc = Helpers.tc
let db = Helpers.db

(* an NC-learnable suffix plus one hostname-less router linked to a
   London router *)
let fixture () =
  let vps = Helpers.std_vps () in
  let lon = Helpers.city "london" "gb" in
  let fra = Helpers.city "frankfurt" "de" in
  let sea = Helpers.city_st "seattle" "us" "wa" in
  let named id at code =
    Helpers.router ~id ~at ~vps
      ~hostnames:
        (List.init 2 (fun i -> Printf.sprintf "ae%d.cr1.%s%d.example.net" i code (i + 1)))
      ()
  in
  let silent = Helpers.router ~id:100 ~at:lon ~vps () in
  let far_silent = Helpers.router ~id:101 ~at:sea ~vps () in
  let routers =
    [ named 0 lon "lhr"; named 1 lon "lhr"; named 2 fra "fra";
      named 3 sea "sea"; silent; far_silent ]
  in
  (* silent sits next to a London router; far_silent is (wrongly) seen
     next to London too, but its own RTTs place it in Seattle *)
  let links = [ (0, 100); (0, 101); (2, 3) ] in
  let ds = Helpers.dataset ~links routers vps in
  let p = Pipeline.run ds in
  (ds, p)

let test_anchors () =
  let _, p = fixture () in
  let anchors = Tbg.anchors_of_pipeline p in
  Alcotest.(check int) "four NC-geolocated routers" 4 (List.length anchors);
  Alcotest.(check bool) "silent not an anchor" true
    (List.for_all (fun (a : Tbg.anchor) -> a.Tbg.router_id < 100) anchors)

let test_infer_neighbor () =
  let _, p = fixture () in
  let inferences, _ = Tbg.coverage_gain p in
  match
    List.find_opt (fun (i : Tbg.inference) -> i.Tbg.router_id = 100) inferences
  with
  | Some inf ->
      Alcotest.(check string) "inherits london" "london" inf.Tbg.city.City.name;
      Alcotest.(check int) "via the london anchor" 0 inf.Tbg.via
  | None -> Alcotest.fail "silent neighbor not geolocated"

let test_rtt_vetoes_bad_anchor () =
  (* far_silent's only anchored neighbor claims London, but its RTTs say
     Seattle: the inference must be suppressed *)
  let _, p = fixture () in
  let inferences, _ = Tbg.coverage_gain p in
  Alcotest.(check bool) "no inference for the far router" true
    (List.for_all (fun (i : Tbg.inference) -> i.Tbg.router_id <> 101) inferences)

let test_no_links_no_inferences () =
  let vps = Helpers.std_vps () in
  let lon = Helpers.city "london" "gb" in
  let routers =
    [ Helpers.router ~id:0 ~at:lon ~vps ~hostnames:[ "ae1.cr1.lhr1.example.net" ] ();
      Helpers.router ~id:1 ~at:lon ~vps () ]
  in
  let ds = Helpers.dataset routers vps in
  let consist = Consist.create ds in
  Alcotest.(check int) "no adjacency, no inference" 0
    (List.length
       (Tbg.infer consist ds
          [ { Tbg.router_id = 0; city = lon } ]))

let test_generated_links_valid () =
  let ds, _ = Hoiho_netsim.Generate.generate (Hoiho_netsim.Presets.tiny ()) in
  Alcotest.(check bool) "links exist" true (Array.length ds.Hoiho_itdk.Dataset.links > 0);
  let max_id = Hoiho_itdk.Dataset.n_routers ds in
  Array.iter
    (fun (a, b) ->
      Alcotest.(check bool) "valid endpoints" true
        (a >= 0 && a < max_id && b >= 0 && b < max_id && a <> b))
    ds.Hoiho_itdk.Dataset.links

let test_links_roundtrip () =
  let ds, _ = Hoiho_netsim.Generate.generate (Hoiho_netsim.Presets.tiny ~seed:9 ()) in
  let ds2 = Helpers.itdk_parse (Helpers.itdk_text ds) in
  Alcotest.(check int) "links preserved"
    (Array.length ds.Hoiho_itdk.Dataset.links)
    (Array.length ds2.Hoiho_itdk.Dataset.links)

let suites =
  [
    ( "tbg",
      [
        tc "anchors" test_anchors;
        tc "infer neighbor" test_infer_neighbor;
        tc "rtt vetoes bad anchor" test_rtt_vetoes_bad_anchor;
        tc "no links no inferences" test_no_links_no_inferences;
        tc "generated links valid" test_generated_links_valid;
        tc "links roundtrip" test_links_roundtrip;
      ] );
  ]
