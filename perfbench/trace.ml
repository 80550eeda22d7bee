(* Layer accounting over one traced run.

   The benchmark wraps each public call of an operation in its own
   [bench.*] span (through [Obs], so the engine's spans nest beneath
   them); [Obs.report] then holds one tree per operation.  A span's self
   time is its duration minus its children's; each span is attributed to
   the layer its name belongs to. *)

module Obs = Qf_obs.Obs

let layer_of_span name =
  let prefix p = String.starts_with ~prefix:p name in
  match name with
  | "bench.op" -> "op"
  | "bench.load" -> "csv.load"
  | "bench.append" -> "catalog.append"
  | "bench.front" -> "front"
  | "bench.optimize" -> "optimizer"
  | "bench.execute" -> "execute"
  | "bench.render" -> "csv.render"
  | "plan.run" | "filter.step" -> "plan_exec"
  | _ when prefix "dynamic." -> "dynamic"
  | _ when prefix "join." -> "join"
  | _ when prefix "aggregate." -> "aggregate"
  | _ -> "other"

let is_kernel layer = layer = "join" || layer = "aggregate"
let duration (s : Obs.span) = s.stop_s -. s.start_s

type t = {
  self_s : (string, float) Hashtbl.t;  (** layer -> summed self time *)
  inclusive_s : (string, float) Hashtbl.t;  (** span name -> summed duration *)
  attr_sum : (string, float) Hashtbl.t;  (** "span.attr" -> summed value *)
  violations : string list;  (** failed accounting checks *)
}

let add tbl key v =
  Hashtbl.replace tbl key (v +. Option.value ~default:0. (Hashtbl.find_opt tbl key))

let get tbl key = Option.value ~default:0. (Hashtbl.find_opt tbl key)

(* Clock reads on either side of a span boundary are not simultaneous. *)
let eps = 1e-4

(* [analyse report ~op_wall] — [op_wall id] is the benchmark's own
   stopwatch reading for operation [id] (the [op] attribute of its
   [bench.op] span).  Checks, per operation: no span's children outlast
   it, the layers' self times sum to at most the operation's wall time,
   and the kernels under each [filter.step] spend at most that step's
   time. *)
let analyse (report : Obs.report) ~op_wall =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun (s : Obs.span) ->
      Option.iter (fun p -> Hashtbl.add children p s) s.parent)
    report.spans;
  let kids (s : Obs.span) = Hashtbl.find_all children s.id in
  let self (s : Obs.span) =
    duration s -. List.fold_left (fun a c -> a +. duration c) 0. (kids s)
  in
  let self_s = Hashtbl.create 16
  and inclusive_s = Hashtbl.create 16
  and attr_sum = Hashtbl.create 16 in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  (* Self time of the kernel spans in [s]'s subtree. *)
  let rec kernel_self (s : Obs.span) =
    List.fold_left
      (fun a c -> a +. kernel_self c)
      (if is_kernel (layer_of_span s.name) then self s else 0.)
      (kids s)
  in
  let rec walk op (s : Obs.span) =
    let layer = layer_of_span s.name in
    let sf = self s in
    if sf < -.eps then violate "op %d: children of %s outlast it by %.6fs" op s.name (-.sf);
    if layer <> "op" then add self_s layer sf;
    add inclusive_s s.name (duration s);
    List.iter
      (fun (k, v) ->
        match v with
        | Obs.Int n -> add attr_sum (s.name ^ "." ^ k) (float_of_int n)
        | Obs.Float f -> add attr_sum (s.name ^ "." ^ k) f
        | Obs.Bool b -> if b then add attr_sum (s.name ^ "." ^ k) 1.
        | Obs.Str _ -> ())
      s.attrs;
    if s.name = "filter.step" then begin
      let k = kernel_self s in
      if k > duration s +. eps then
        violate "op %d: kernels in filter.step take %.6fs of its %.6fs" op k
          (duration s)
    end;
    List.fold_left (fun a c -> a +. walk op c) (if layer = "op" then 0. else sf) (kids s)
  in
  List.iter
    (fun (s : Obs.span) ->
      if s.name = "bench.op" && s.parent = None then begin
        let op =
          match List.assoc_opt "op" s.attrs with Some (Obs.Int n) -> n | _ -> -1
        in
        let layers = walk op s in
        let wall = op_wall op in
        if layers > wall +. eps then
          violate "op %d: layer self times sum to %.6fs, over its wall time %.6fs"
            op layers wall
      end)
    report.spans;
  { self_s; inclusive_s; attr_sum; violations = List.rev !violations }

let counter (report : Obs.report) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name report.counters))

let gauge (report : Obs.report) name =
  Option.value ~default:0. (List.assoc_opt name report.gauges)
