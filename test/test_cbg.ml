module Cbg = Hoiho.Cbg
module Consist = Hoiho.Consist
module Router = Hoiho_itdk.Router
module Coord = Hoiho_geo.Coord

let tc = Helpers.tc

let fixture at =
  let vps = Helpers.std_vps () in
  let r = Helpers.router ~id:0 ~at ~vps ~hostnames:[] () in
  let ds = Helpers.dataset [ r ] vps in
  (Consist.create ds, r)

let test_estimate_near_truth () =
  let ash = Helpers.city_st "ashburn" "us" "va" in
  let consist, r = fixture ash in
  match Cbg.estimate consist r with
  | Some est ->
      let d = Coord.distance_km est.Cbg.center ash.Hoiho_geodb.City.coord in
      Alcotest.(check bool)
        (Printf.sprintf "estimate within 500 km (got %.0f)" d)
        true (d < 500.0);
      Alcotest.(check bool) "error positive" true (est.Cbg.error_km > 0.0);
      Alcotest.(check int) "all constraints used" 8 est.Cbg.n_constraints
  | None -> Alcotest.fail "no estimate"

let test_estimate_needs_rtts () =
  let vps = Helpers.std_vps () in
  let silent = Router.make 1 in
  let ds = Helpers.dataset [ silent ] vps in
  let consist = Consist.create ds in
  Alcotest.(check bool) "no rtts, no estimate" true (Cbg.estimate consist silent = None)

let test_error_reflects_tightest_disc () =
  (* a router colocated with a VP has a very small feasible region *)
  let dc = Helpers.city_st "washington" "us" "dc" in
  let consist, r = fixture dc in
  match Cbg.estimate consist r with
  | Some est -> Alcotest.(check bool) "tight error" true (est.Cbg.error_km < 500.0)
  | None -> Alcotest.fail "no estimate"

let test_shortest_ping () =
  let lon = Helpers.city "london" "gb" in
  let consist, r = fixture lon in
  match Cbg.shortest_ping consist r with
  | Some vp ->
      Alcotest.(check string) "london vp wins" "london|gb|" vp.Hoiho_itdk.Vp.city_key
  | None -> Alcotest.fail "no shortest ping"

let test_shortest_ping_needs_ping () =
  let vps = Helpers.std_vps () in
  let r = Router.make 2 ~trace_rtts:(Hoiho_itdk.Rtts.of_list [ (0, 50.0) ]) in
  let ds = Helpers.dataset [ r ] vps in
  let consist = Consist.create ds in
  Alcotest.(check bool) "trace only, none" true (Cbg.shortest_ping consist r = None)

let test_feasible () =
  let lon = Helpers.city "london" "gb" in
  let tokyo = Helpers.city "tokyo" "jp" in
  let consist, r = fixture lon in
  Alcotest.(check bool) "truth feasible" true
    (Cbg.feasible consist r lon.Hoiho_geodb.City.coord);
  Alcotest.(check bool) "tokyo infeasible" false
    (Cbg.feasible consist r tokyo.Hoiho_geodb.City.coord)

let test_infeasible_fraction () =
  let lon = Helpers.city "london" "gb" in
  let tokyo = Helpers.city "tokyo" "jp" in
  let consist, r = fixture lon in
  let frac =
    Cbg.infeasible_fraction consist
      [ (r, lon.Hoiho_geodb.City.coord); (r, tokyo.Hoiho_geodb.City.coord) ]
  in
  Alcotest.(check (float 1e-9)) "half infeasible" 0.5 frac

let test_antimeridian_estimate () =
  (* a router near the date line must not produce a nonsense centroid *)
  let vps = Helpers.std_vps () in
  let auckland = Helpers.city "auckland" "nz" in
  let r = Helpers.router ~id:3 ~at:auckland ~vps () in
  let ds = Helpers.dataset [ r ] vps in
  let consist = Consist.create ds in
  match Cbg.estimate consist r with
  | Some est ->
      Alcotest.(check bool) "longitude in range" true
        (est.Cbg.center.Coord.lon >= -180.0 && est.Cbg.center.Coord.lon <= 180.0)
  | None -> Alcotest.fail "no estimate"

let suites =
  [
    ( "cbg",
      [
        tc "estimate near truth" test_estimate_near_truth;
        tc "estimate needs rtts" test_estimate_needs_rtts;
        tc "error reflects tightest disc" test_error_reflects_tightest_disc;
        tc "shortest ping" test_shortest_ping;
        tc "shortest ping needs ping" test_shortest_ping_needs_ping;
        tc "feasible" test_feasible;
        tc "infeasible fraction" test_infeasible_fraction;
        tc "antimeridian estimate" test_antimeridian_estimate;
      ] );
  ]
