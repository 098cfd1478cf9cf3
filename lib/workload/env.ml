module Engine = Dpsim.Engine

type t = {
  engine : Engine.t;
  file_table : Dpsim.Program.lock;
  mdu : Dpsim.Program.lock;
  av_db : Dpsim.Program.lock;
  gpu_res : Dpsim.Program.lock;
  cache : Dpsim.Program.lock;
  dp_gate : Dpsim.Program.lock;
  backup : Dpsim.Program.lock;
  disk : Dpsim.Program.device;
  net : Dpsim.Program.device;
  gpu : Dpsim.Program.device;
  input : Dpsim.Program.device;
  sys_worker : Dpsim.Program.service;
  av_queue : Dpsim.Program.lock;
  app_main : Dpsim.Program.lock;
  net_io : Dpsim.Program.lock;
}

let create engine =
  {
    engine;
    file_table = Engine.new_lock engine ~name:"FileTable";
    mdu = Engine.new_lock engine ~name:"MDU";
    av_db = Engine.new_lock engine ~name:"AvDatabase";
    gpu_res = Engine.new_lock engine ~name:"GpuResource";
    cache = Engine.new_lock engine ~name:"IoCacheDir";
    dp_gate = Engine.new_lock engine ~name:"DiskProtectGate";
    backup = Engine.new_lock engine ~name:"BackupSnapshot";
    disk = Engine.new_device engine ~name:"Disk0" ~signature:Taxonomy.disk_service;
    net = Engine.new_device engine ~name:"Net0" ~signature:Taxonomy.net_service;
    gpu = Engine.new_device engine ~name:"Gpu0" ~signature:Taxonomy.gpu_service;
    input =
      Engine.new_device engine ~name:"Input0"
        ~signature:(Dptrace.Signature.hw_service "InputService");
    sys_worker =
      Engine.new_service engine ~name:"SysWorker"
        ~worker_stack:[ Dpsim.Program.kernel_worker ];
    av_queue = Engine.new_lock engine ~name:"AvServiceQueue";
    app_main = Engine.new_lock engine ~name:"AppMainLoop";
    net_io = Engine.new_lock engine ~name:"NetIoQueue";
  }
