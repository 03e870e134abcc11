(* The figure-8 story: operators repurpose geohints, and the learner
   works out what they meant.

   "ash" is the IATA code of Nashua, NH — but he.net uses it for its
   Ashburn, VA point of presence. The reference dictionary alone would
   misplace those routers by 700 km. This example walks the reasoning:
   the dictionary interpretation fails the speed-of-light test, the
   abbreviation matcher proposes candidate cities, and ranking by
   facility presence and population picks Ashburn.

   Run with: dune exec examples/custom_geohints.exe *)

let () =
  let db = Hoiho_geodb.Db.default () in
  let dataset, _ = Hoiho_netsim.Generate.generate (Hoiho_netsim.Presets.tiny ()) in
  let consist = Hoiho.Consist.create dataset in

  (* 1. What does the dictionary say "ash" means? *)
  print_endline "reference dictionary:";
  List.iter
    (fun city ->
      Printf.printf "  IATA ash = %s\n" (Hoiho_geodb.City.describe city))
    (Hoiho_geodb.Db.lookup_iata db "ash");

  (* 2. Find an he.net router whose hostname embeds "ash". *)
  let router =
    Array.to_list dataset.Hoiho_itdk.Dataset.routers
    |> List.find (fun (r : Hoiho_itdk.Router.t) ->
           List.exists
             (fun h ->
               Hoiho_psl.Psl.registered_suffix h = Some "he.net"
               && Hoiho_util.Strutil.split_punct h
                  |> List.exists (fun t ->
                         Hoiho_util.Strutil.strip_trailing_digits t = "ash"))
             r.Hoiho_itdk.Router.hostnames
           && not (Hoiho_itdk.Rtts.is_empty r.Hoiho_itdk.Router.ping_rtts))
  in
  Printf.printf "\nrouter #%d: %s\n" router.Hoiho_itdk.Router.id
    (String.concat ", " router.Hoiho_itdk.Router.hostnames);

  (* 3. Is Nashua consistent with this router's RTTs? Is Ashburn? *)
  let test name =
    match Hoiho_geodb.Db.lookup_city_name db name with
    | city :: _ ->
        Printf.printf "  %-24s RTT-consistent: %b\n"
          (Hoiho_geodb.City.describe city)
          (Hoiho.Consist.city_consistent consist router city)
    | [] -> ()
  in
  print_endline "\nspeed-of-light test against measured RTTs:";
  test "nashua";
  test "ashburn";

  (* 4. Which places could "ash" abbreviate? *)
  print_endline "\nabbreviation candidates for \"ash\":";
  Hoiho_geodb.Db.fold_cities
    (fun city () ->
      if Hoiho.Learn.abbrev_matches ~hint:"ash" ~name:city.Hoiho_geodb.City.name
      then
        Printf.printf "  %-24s population %8d  facility: %b\n"
          (Hoiho_geodb.City.describe city)
          city.Hoiho_geodb.City.population
          (city.Hoiho_geodb.City.facilities <> []))
    db ();

  (* 5. Run the full pipeline and show what was learned for he.net. *)
  let pipeline = Hoiho.Pipeline.run dataset in
  (match Hoiho.Pipeline.find pipeline "he.net" with
  | Some { learned; _ } ->
      print_endline "\nstage-4 learned geohints for he.net:";
      List.iter
        (fun (e : Hoiho.Learned.entry) ->
          Printf.printf "  %-8s -> %-24s (%d routers agree, %d disagree%s)\n"
            e.Hoiho.Learned.hint
            (Hoiho_geodb.City.describe e.Hoiho.Learned.city)
            e.Hoiho.Learned.tp e.Hoiho.Learned.fp
            (if e.Hoiho.Learned.collides then "; overrides a dictionary code"
             else ""))
        (Hoiho.Learned.entries learned)
  | None -> print_endline "he.net not found")
