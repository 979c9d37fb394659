(* One slot per recommended domain plus one for the main domain, which
   leases a slot as soon as it bumps a counter and keeps it: with
   exactly [recommended_domain_count] slots, the last of that many
   workers would land on the overflow row. *)
let capacity = Bits.next_power_of_two (Domain.recommended_domain_count () + 1)

(* Leasing happens once per domain lifetime, so a mutex is cheap enough.
   It also orders a slot's previous holder's last stores to its cells
   before the next holder's first loads. *)
let lock = Mutex.create ()
let free = ref (List.init capacity Fun.id)

(* -1 until the domain's first [get]: a new domain never inherits its
   parent's slot. *)
let key = Domain.DLS.new_key (fun () -> -1)

let get () =
  let s = Domain.DLS.get key in
  if s >= 0 then s
  else begin
    let s =
      Mutex.protect lock (fun () ->
          match !free with
          | s :: rest -> free := rest; s
          | [] -> capacity)
    in
    Domain.DLS.set key s;
    if s < capacity then
      Domain.at_exit (fun () ->
          Mutex.protect lock (fun () -> free := List.merge compare [ s ] !free));
    s
  end
