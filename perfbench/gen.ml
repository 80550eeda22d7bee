(* Input generation, independent of the engine: every workload's data is
   produced here as CSV text from the seed alone, so the engine under test
   receives only CSV and flock source, and a change to the engine's own
   generators cannot change the benchmark's inputs. *)

(* SplitMix64. *)
type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int seed }

let next r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int r bound = Int64.to_int (Int64.logand (next r) 0x3FFFFFFFFFFFFFFFL) mod bound
let float r = Int64.to_float (Int64.shift_right_logical (next r) 11) /. 9007199254740992.0
let bool r p = float r < p

(* Zipf over ranks 1..n with exponent s, by inverse-CDF binary search. *)
let zipf ~n ~s =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) s);
    cdf.(i) <- !acc
  done;
  let total = !acc in
  fun r ->
    let u = float r *. total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo + 1

(* {1 Market baskets} *)

type baskets = {
  n_baskets : int;
  n_items : int;
  avg_basket : int;  (** basket size is uniform in [1, 2 avg - 1] *)
  zipf_s : float;
}

(* Rows [(bid, item)] for baskets [first .. first + count - 1]. *)
let basket_rows cfg r ~first ~count buf =
  let draw = zipf ~n:cfg.n_items ~s:cfg.zipf_s in
  for bid = first to first + count - 1 do
    let size = 1 + int r ((2 * cfg.avg_basket) - 1) in
    for _ = 1 to size do
      Printf.bprintf buf "%d,%d\n" bid (draw r)
    done
  done

let baskets_csv cfg ~seed =
  let buf = Buffer.create (cfg.n_baskets * cfg.avg_basket * 12) in
  Buffer.add_string buf "BID,Item\n";
  basket_rows cfg (rng seed) ~first:1 ~count:cfg.n_baskets buf;
  Buffer.contents buf

(* Header-less rows of [count] new baskets numbered from [first]: one
   session append. *)
let basket_batch cfg ~seed ~first ~count =
  let buf = Buffer.create (count * cfg.avg_basket * 12) in
  basket_rows cfg (rng seed) ~first ~count buf;
  Buffer.contents buf

(* [basket_flock ~k ~support]: frequent k-item sets, the Fig. 2 flock
   generalized to k parameters, with every ordering subgoal [$i < $j]
   written out (the shape of the engine's levelwise a-priori plans). *)
let basket_flock ~k ~support =
  let atoms = List.init k (fun i -> Printf.sprintf "    baskets(B,$%d)" (i + 1)) in
  let order =
    List.concat
      (List.init k (fun i ->
           List.init (k - i - 1) (fun d ->
               Printf.sprintf "    $%d < $%d" (i + 1) (i + 2 + d))))
  in
  Printf.sprintf "QUERY:\nanswer(B) :-\n%s\n\nFILTER:\nCOUNT(answer.B) >= %d\n"
    (String.concat " AND\n" (atoms @ order))
    support

(* {1 Medical side effects (Figs. 3 and 5)} *)

type medical = {
  n_patients : int;
  n_diseases : int;
  n_symptoms : int;
  n_medicines : int;
  symptoms_per_disease : int;
  background_symptoms : int;
  background_medicines : int;
  symptom_zipf : float;
  medicine_zipf : float;
  planted : int;
  side_effect_rate : float;
}

(* Four CSV relations, in the order diagnoses, exhibits, treatments,
   causes. *)
let medical_csv cfg ~seed =
  let r = rng seed in
  let symptom = zipf ~n:cfg.n_symptoms ~s:cfg.symptom_zipf in
  let medicine = zipf ~n:cfg.n_medicines ~s:cfg.medicine_zipf in
  let caused = Array.make (cfg.n_diseases + 1) [] in
  let indicated = Array.make (cfg.n_diseases + 1) 1 in
  for d = 1 to cfg.n_diseases do
    while List.length caused.(d) < cfg.symptoms_per_disease do
      let s = 1 + int r cfg.n_symptoms in
      if not (List.mem s caused.(d)) then caused.(d) <- s :: caused.(d)
    done;
    indicated.(d) <- 1 + int r cfg.n_medicines
  done;
  (* A planted side effect: disease d's medicine produces a symptom d does
     not cause, so the flock should find (medicine, symptom). *)
  let planted =
    List.init (min cfg.planted cfg.n_diseases) (fun i ->
        let d = i + 1 in
        let rec pick () =
          let s = 1 + int r cfg.n_symptoms in
          if List.mem s caused.(d) then pick () else s
        in
        d, pick ())
  in
  let diagnoses = Buffer.create (cfg.n_patients * 8) in
  let exhibits = Buffer.create (cfg.n_patients * 100) in
  let treatments = Buffer.create (cfg.n_patients * 40) in
  let causes = Buffer.create 1024 in
  Buffer.add_string diagnoses "Patient,Disease\n";
  Buffer.add_string exhibits "Patient,Symptom\n";
  Buffer.add_string treatments "Patient,Medicine\n";
  Buffer.add_string causes "Disease,Symptom\n";
  for d = 1 to cfg.n_diseases do
    List.iter (fun s -> Printf.bprintf causes "%d,%d\n" d s) caused.(d)
  done;
  for p = 1 to cfg.n_patients do
    let d = 1 + int r cfg.n_diseases in
    Printf.bprintf diagnoses "%d,%d\n" p d;
    List.iter
      (fun s -> if bool r 0.8 then Printf.bprintf exhibits "%d,%d\n" p s)
      caused.(d);
    Printf.bprintf treatments "%d,%d\n" p indicated.(d);
    List.iter
      (fun (pd, s) ->
        if pd = d && bool r cfg.side_effect_rate then
          Printf.bprintf exhibits "%d,%d\n" p s)
      planted;
    for _ = 1 to cfg.background_symptoms do
      Printf.bprintf exhibits "%d,%d\n" p (symptom r)
    done;
    for _ = 1 to cfg.background_medicines do
      Printf.bprintf treatments "%d,%d\n" p (medicine r)
    done
  done;
  List.map Buffer.contents [ diagnoses; exhibits; treatments; causes ]

let medical_names = [ "diagnoses"; "exhibits"; "treatments"; "causes" ]

let medical_flock ~support =
  Printf.sprintf
    "QUERY:\n\
     answer(P) :-\n\
    \    exhibits(P,$s) AND\n\
    \    treatments(P,$m) AND\n\
    \    diagnoses(P,D) AND\n\
    \    NOT causes(D,$s)\n\n\
     FILTER:\n\
     COUNT(answer.P) >= %d\n"
    support
