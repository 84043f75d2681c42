module Ip_map = Map.Make (Int)

type t = {
  table : Ixnet.Mac_addr.t Ip_map.t Rcu.t;
  parked : (Ixnet.Ip_addr.t, Ixmem.Mbuf.t list) Hashtbl.t;
  mutable retired : int;
}

let max_parked_per_ip = 8

let create mgr = { table = Rcu.make mgr Ip_map.empty; parked = Hashtbl.create 16; retired = 0 }

let find t ip = Ip_map.find ip (Rcu.read t.table)

let learn t ip mac =
  let known = try find t ip = mac with Not_found -> false in
  if not known then
    Rcu.update t.table (Ip_map.add ip mac) ~retired:(fun _old ->
        t.retired <- t.retired + 1)

let park t ip mbuf =
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.parked ip) in
  if List.length existing >= max_parked_per_ip then begin
    Ixmem.Mbuf.decref mbuf;
    false
  end
  else begin
    Hashtbl.replace t.parked ip (mbuf :: existing);
    true
  end

let take_parked t ip =
  match Hashtbl.find_opt t.parked ip with
  | None -> []
  | Some frames ->
      Hashtbl.remove t.parked ip;
      List.rev frames

let entries t = Ip_map.cardinal (Rcu.read t.table)
let retired_versions t = t.retired

let parked_count t =
  Hashtbl.fold (fun _ frames acc -> acc + List.length frames) t.parked 0
