(* Two parallel arrays: [vps.(i)] measured [ms.(i)]. The float half is
   a flat [Float.Array.t], so a sample costs two words, not the eight of
   a boxed (int * float) cons cell. Neither array escapes this module,
   which is what makes the value immutable. *)
type t = { vps : int array; ms : Float.Array.t }

let empty = { vps = [||]; ms = Float.Array.create 0 }
let length t = Array.length t.vps
let is_empty t = Array.length t.vps = 0

let of_list = function
  | [] -> empty
  | l ->
      let n = List.length l in
      let vps = Array.make n 0 and ms = Float.Array.create n in
      List.iteri
        (fun i (v, r) ->
          vps.(i) <- v;
          Float.Array.unsafe_set ms i r)
        l;
      { vps; ms }

let iter f t =
  for i = 0 to length t - 1 do
    f t.vps.(i) (Float.Array.unsafe_get t.ms i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to length t - 1 do
    acc := f !acc t.vps.(i) (Float.Array.unsafe_get t.ms i)
  done;
  !acc

let for_all f t =
  let n = length t in
  let rec go i = i >= n || (f t.vps.(i) (Float.Array.unsafe_get t.ms i) && go (i + 1)) in
  go 0

let to_list t = List.rev (fold (fun acc v r -> (v, r) :: acc) [] t)

let find_opt vp t =
  let n = length t in
  let rec go i =
    if i >= n then None
    else if t.vps.(i) = vp then Some (Float.Array.unsafe_get t.ms i)
    else go (i + 1)
  in
  go 0

(* the first sample with the smallest RTT: a later one replaces the
   best only when strictly smaller *)
let min t =
  if is_empty t then None
  else begin
    let best = ref 0 in
    for i = 1 to length t - 1 do
      if Float.Array.unsafe_get t.ms i < Float.Array.unsafe_get t.ms !best then best := i
    done;
    Some (t.vps.(!best), Float.Array.get t.ms !best)
  end

(* in index order, so a PRNG-consuming [f] draws as List.map would *)
let map f t = of_list (List.map (fun (v, r) -> f v r) (to_list t))
let filter f t = of_list (List.filter (fun (v, r) -> f v r) (to_list t))

module Builder = struct
  type rtts = t
  type t = { mutable vps : int array; mutable ms : Float.Array.t; mutable n : int }

  let create () = { vps = Array.make 64 0; ms = Float.Array.create 64; n = 0 }

  let add b v r =
    if b.n = Array.length b.vps then begin
      let cap = 2 * b.n in
      let vps = Array.make cap 0 and ms = Float.Array.create cap in
      Array.blit b.vps 0 vps 0 b.n;
      Float.Array.blit b.ms 0 ms 0 b.n;
      b.vps <- vps;
      b.ms <- ms
    end;
    b.vps.(b.n) <- v;
    Float.Array.unsafe_set b.ms b.n r;
    b.n <- b.n + 1

  let freeze b : rtts =
    let n = b.n in
    b.n <- 0;
    if n = 0 then empty else { vps = Array.sub b.vps 0 n; ms = Float.Array.sub b.ms 0 n }
end
