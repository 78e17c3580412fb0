module Config = Config
module Sender = Sender
module Receiver = Receiver
module Int_feedback = Int_feedback

type t = { sender : Sender.t; receiver : Receiver.t }

let create engine config =
  { sender = Sender.create engine config; receiver = Receiver.create engine config }

(* The span guards are inlined (no [with_span]): a closure per packet on
   the datapath would show up in the very allocation accounting the spans
   exist to measure. *)
let[@inline] receiver_egress t pkt ~inject =
  if !Profcore.on then begin
    let tok = Profcore.enter Profcore.Site.acdc_receiver in
    let v = Receiver.egress t.receiver pkt ~inject in
    Profcore.leave tok;
    v
  end
  else Receiver.egress t.receiver pkt ~inject

let[@inline] sender_egress t pkt ~inject =
  if !Profcore.on then begin
    let tok = Profcore.enter Profcore.Site.acdc_sender in
    let v = Sender.egress t.sender pkt ~inject in
    Profcore.leave tok;
    v
  end
  else Sender.egress t.sender pkt ~inject

let[@inline] sender_ingress t pkt ~inject =
  if !Profcore.on then begin
    let tok = Profcore.enter Profcore.Site.acdc_sender in
    let v = Sender.ingress t.sender pkt ~inject in
    Profcore.leave tok;
    v
  end
  else Sender.ingress t.sender pkt ~inject

let[@inline] receiver_ingress t pkt ~inject =
  if !Profcore.on then begin
    let tok = Profcore.enter Profcore.Site.acdc_receiver in
    let v = Receiver.ingress t.receiver pkt ~inject in
    Profcore.leave tok;
    v
  end
  else Receiver.ingress t.receiver pkt ~inject

let processor t =
  {
    Vswitch.Datapath.name = "acdc";
    egress =
      (fun pkt ~inject ->
        (* The receiver module runs first so the ACKs of locally-received
           flows carry PACK feedback before the sender module (which only
           acts on locally-sent flows) sees them. *)
        match receiver_egress t pkt ~inject with
        | Vswitch.Datapath.Drop -> Vswitch.Datapath.Drop
        | Vswitch.Datapath.Pass -> sender_egress t pkt ~inject);
    ingress =
      (fun pkt ~inject ->
        match sender_ingress t pkt ~inject with
        | Vswitch.Datapath.Drop -> Vswitch.Datapath.Drop
        | Vswitch.Datapath.Pass -> receiver_ingress t pkt ~inject);
  }

let attach t datapath = Vswitch.Datapath.add_processor datapath (processor t)

let sender t = t.sender
let receiver t = t.receiver

let set_vm_injector t inject = Sender.set_vm_injector t.sender inject

let shutdown t =
  Sender.shutdown t.sender;
  Receiver.shutdown t.receiver
