module Yp = Ct_util.Yieldpoint
module Progress = Ct_util.Progress

type entry = { slot : int; stamp : int; site : Yp.site; phase : Yp.phase }

(* One Ring entry per event: the site's id and the phase (0 = Before,
   1 = After). *)
type t = Ring.t

let create ?(size = 256) () =
  if size < 1 then invalid_arg "Flight.create: size < 1";
  Ring.create ~cols:2 ~size

let size = Ring.size

let record t phase site =
  let e = Ring.claim t in
  Ring.put t e 0 (Yp.id site);
  Ring.put t e 1 (match phase with Yp.Before -> 0 | Yp.After -> 1);
  Ring.publish t e

let recorded = Ring.recorded

let install t = Yp.install_observer (fun phase site -> record t phase site)

let install_with_progress t progress =
  Yp.install_observer (fun phase site ->
      Progress.observe progress phase site;
      record t phase site)

let uninstall () = Yp.clear_observer ()

let dump t =
  List.map
    (fun (slot, stamp, p) ->
      {
        slot;
        stamp;
        site = Yp.of_id p.(0);
        phase = (if p.(1) = 0 then Yp.Before else Yp.After);
      })
    (Ring.entries t)

let entry_to_string e =
  Printf.sprintf "[%8d] d%-2d %s/%s" e.stamp e.slot (Yp.name e.site)
    (match e.phase with Yp.Before -> "before" | Yp.After -> "after")

let dump_to_string ?limit t =
  let entries = dump t in
  let entries =
    match limit with
    | None -> entries
    | Some n ->
        let len = List.length entries in
        if len <= n then entries else List.filteri (fun i _ -> i >= len - n) entries
  in
  match entries with
  | [] -> "<flight recorder: no events recorded>"
  | es -> String.concat "\n" (List.map entry_to_string es)

let reset = Ring.reset
