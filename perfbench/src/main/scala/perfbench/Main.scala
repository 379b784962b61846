package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{MultiEm, MultiEmConfig}
import repro.data.EmDataset
import repro.expts.{Harness, Tuned}

/** Command-line options; see README.md. */
final case class Options(
    workload: String = "",
    seed: Long = 0L,
    seconds: Double = 1.0,
    trace: Boolean = false,
    scale: Option[Double] = None,
    record: Option[String] = None,
)

/** A measured value with its unit, as printed in the result line. */
final case class Metric(value: Double, unit: String)

/** The inputs of one workload, materialised once per set-up. */
final case class Inputs(
    spark: SparkSession,
    ds: EmDataset,
    tables: Seq[DataFrame],
    gt: DataFrame,
    gtTuples: Set[Seq[Long]],
    sourceOf: Map[Long, Int],
    entities: Long,
)

/** One checked pipeline run: its wall time and its tuples. */
final case class Run(seconds: Double, cpuSeconds: Double, tuples: Set[Seq[Long]], tupleF1: Double, pairF1: Double)

object Main {

  /** The pre-tuned hyperparameters every workload runs with (no grid search). */
  val tuned: Tuned = Tuned(m = 0.45, eps = 0.9, gamma = 0.45)
  val sampleRatio = 0.2
  /** Set-ups per process; `setup_s` is their median. */
  val setups = 3
  /** Stop starting new runs after this long, to stay inside a run's limit. */
  val processBudgetSeconds = 150.0

  def parse(args: List[String], o: Options = Options()): Options = args match {
    case "--workload" :: v :: rest => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest     => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest  => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest    => parse(rest, o.copy(trace = v == "1"))
    case "--scale" :: v :: rest    => parse(rest, o.copy(scale = Some(v.toDouble)))
    case "--record" :: v :: rest   => parse(rest, o.copy(record = Some(v)))
    case Nil                       => o
    case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args.toList)
    val bench = new Bench(Workload.named(opts.workload), opts)
    val (summary, record) = try bench.run() finally SparkSession.getActiveSession.foreach(_.stop())
    opts.record.foreach { path =>
      val p = Paths.get(path)
      Option(p.getParent).foreach(Files.createDirectories(_))
      Files.write(p, Json.write(record).getBytes(StandardCharsets.UTF_8))
    }
    println("config " + Json.write(record("config")))
    println(Json.write(summary))
  }
}

/** One benchmark process for one workload: three set-ups, a cold
  * `MultiEm.run`, then warm runs (`--trace 0`) or traced runs (`--trace 1`)
  * while the `--seconds` window lasts.
  */
final class Bench(w: Workload, opts: Options) {
  import Main._

  private val t0 = System.nanoTime()
  private def elapsed: Double = (System.nanoTime() - t0) / 1e9
  private val scale = opts.scale.getOrElse(w.defaultScale)
  private val dataSeed = w.baseSeed + opts.seed

  private var attempted = 0
  private val failures = mutable.ArrayBuffer.empty[String]

  // ---------------------------------------------------------------- setup --

  /** The Spark settings every workload runs under, pinned here rather than
    * inherited: one JVM, four local cores, 16 shuffle partitions, adaptive
    * execution and whole-stage codegen on, broadcast joins off.
    */
  private def session(): SparkSession = {
    val local = sys.props.getOrElse("perfbench.local.dir", "spark-local")
    val s = SparkSession.builder
      .master("local[4]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "16")
      .config("spark.sql.adaptive.enabled", "true")
      .config("spark.sql.codegen.wholeStage", "true")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", local)
      .config("spark.sql.warehouse.dir", local + "/warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  private def sparkConfig(spark: SparkSession): Map[String, Any] = {
    val c = spark.conf
    Map(
      "master" -> spark.sparkContext.master,
      "cores" -> spark.sparkContext.defaultParallelism,
      "spark.sql.shuffle.partitions" -> c.get("spark.sql.shuffle.partitions"),
      "spark.sql.adaptive.enabled" -> c.get("spark.sql.adaptive.enabled"),
      "spark.sql.codegen.wholeStage" -> c.get("spark.sql.codegen.wholeStage"),
      "spark.sql.autoBroadcastJoinThreshold" -> c.get("spark.sql.autoBroadcastJoinThreshold"),
      "heap_max_gb" -> Runtime.getRuntime.maxMemory / 1e9,
      "spark_version" -> spark.version,
      "java_version" -> sys.props("java.version"),
      "scala_version" -> scala.util.Properties.versionNumberString,
    )
  }

  /** Start Spark, generate the workload and materialise its inputs.
    * @return (inputs, seconds spent generating and materialising the data)
    */
  private def setUp(): (Inputs, Double) = {
    SparkSession.getActiveSession.foreach(_.stop())
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
    val spark = session()
    val g0 = System.nanoTime()
    val ds = w.generate(spark, dataSeed, scale)
    val df = ds.df.localCheckpoint()
    val tables = (0 until ds.nSources).map(s =>
      df.filter(col("source") === s).select((col("eid") +: ds.attrs.map(col)): _*).localCheckpoint())
    val gt = EmDataset(ds.name, df, ds.attrs, ds.nSources).gtTuples.localCheckpoint()
    val gtTuples = collectTuples(gt).map(_.sorted).toSet
    val sourceOf = df.select("eid", "source").collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    val gen = (System.nanoTime() - g0) / 1e9
    (Inputs(spark, ds, tables, gt, gtTuples, sourceOf, sourceOf.size.toLong), gen)
  }

  private def config(in: Inputs): MultiEmConfig =
    Harness.multiEmConfig(in.entities, tuned, sampleRatio = sampleRatio)

  // --------------------------------------------------------------- checks --

  /** Problems with one run's output; empty when the output is valid. */
  private[perfbench] def problems(tuples: Seq[Seq[Long]], selected: Seq[String], sourceOf: Map[Long, Int]): Seq[String] = {
    val out = mutable.ArrayBuffer.empty[String]
    if (selected != w.expectedAttrs)
      out += s"EER selected ${selected.mkString(",")}, expected ${w.expectedAttrs.mkString(",")}"
    if (tuples.isEmpty) out += "no tuples"
    tuples.find(_.size < 2).foreach(t => out += s"tuple with fewer than 2 members: $t")
    tuples.flatten.find(e => !sourceOf.contains(e)).foreach(e => out += s"unknown eid $e")
    tuples.find(t => t.map(e => sourceOf.getOrElse(e, -1)).distinct.size != t.size)
      .foreach(t => out += s"tuple with two entities of one source: $t")
    val all = tuples.flatten
    if (all.distinct.size != all.size) out += "tuples are not pairwise disjoint"
    out.toSeq
  }

  private def collectTuples(df: DataFrame): Seq[Seq[Long]] =
    df.select("members").collect().map(_.getSeq[Long](0).toSeq).toSeq

  /** One untraced `MultiEm.run`, timed from tables to materialised tuples
    * (`MultiEm.run` checkpoints its tuples eagerly), then checked and
    * scored. A run that throws or fails a check yields None.
    */
  private def attempt(in: Inputs, cfg: MultiEmConfig, label: String): Option[Run] = {
    attempted += 1
    try {
      val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
      val c0 = os.getProcessCpuTime
      val s0 = System.nanoTime()
      val res = MultiEm.run(in.tables, in.ds.attrs, cfg)
      val secs = (System.nanoTime() - s0) / 1e9
      val cpu = (os.getProcessCpuTime - c0) / 1e9
      Console.err.println(f"[perfbench] $label%s: $secs%.3f s cpu=$cpu%.1f " +
        res.phaseSeconds.map { case (k, v) => f"$k=$v%.2f" }.mkString(" "))
      val tuples = collectTuples(res.tuples)
      val bad = problems(tuples, res.selectedAttrs, in.sourceOf)
      if (bad.nonEmpty) { failures += s"$label: ${bad.mkString("; ")}"; None }
      else {
        val set = tuples.map(_.sorted).toSet
        Some(Run(secs, cpu, set, F1.tuple(set, in.gtTuples), F1.pair(set, in.gtTuples)))
      }
    } catch {
      case NonFatal(e) => failures += s"$label: $e"; None
    }
  }

  // ------------------------------------------------------------------ run --

  def run(): (Map[String, Any], Map[String, Any]) = {
    val setupSecs = mutable.ArrayBuffer.empty[Double]
    val genSecs = mutable.ArrayBuffer.empty[Double]
    var in: Inputs = null
    for (_ <- 1 to setups) {
      val s0 = System.nanoTime()
      val (i, gen) = setUp()
      setupSecs += (System.nanoTime() - s0) / 1e9
      genSecs += gen
      in = i
    }
    val cfg = config(in)
    // The workload's purpose rests on the ANN mode annFor picks at its size.
    if (cfg.merge.ann.exact != w.exactAnn)
      throw new IllegalStateException(s"${w.name}: ${in.entities} entities give exact=${cfg.merge.ann.exact}")
    val listener = new LayerListener
    if (opts.trace) in.spark.sparkContext.addSparkListener(listener)

    val heap = new HeapWatch
    val window0 = System.nanoTime()
    heap.start()
    val cold = attempt(in, cfg, "cold")
    heap.stop()
    System.gc()

    // Later runs start while the --seconds window, opened when the cold run
    // started, lasts; a traced process makes at least one traced run.
    def more = (System.nanoTime() - window0) / 1e9 < opts.seconds && elapsed < processBudgetSeconds
    val warm = mutable.ArrayBuffer.empty[Run]
    val traces = mutable.ArrayBuffer.empty[TraceResult]
    if (!opts.trace) {
      while (more) { attempt(in, cfg, s"warm ${warm.size + 1}").foreach(warm += _); System.gc() }
    } else {
      do {
        attempted += 1
        val label = s"traced ${traces.size + 1}"
        try {
          val tr = new TracedPipeline(in, cfg, listener).run()
          val bad = problems(tr.tuples.toSeq, tr.selected, in.sourceOf)
          // Exact search is deterministic, so re-driving the layers must give
          // MultiEm.run's tuples; a difference means the schedule drifted.
          val drift = cfg.merge.ann.exact && cold.exists(_.tuples != tr.tuples)
          if (bad.nonEmpty) failures += s"$label: ${bad.mkString("; ")}"
          if (drift) failures += s"$label: traced tuples differ from MultiEm.run's under exact search"
          if (!tr.metricsAgree) failures += s"$label: eval.Metrics F1 differs from the benchmark's own"
          traces += tr.copy(agreement = cold.map(c => Stats.jaccard(c.tuples, tr.tuples)).getOrElse(Double.NaN))
          Console.err.println(f"[perfbench] $label: ${tr.pipelineSeconds}%.3f s")
        } catch {
          case NonFatal(e) => failures += s"$label: $e"
        }
        System.gc()
      } while (more)
    }

    val walls = warm.map(_.seconds).toSeq
    val correct = failures.isEmpty && cold.isDefined && (!opts.trace || traces.nonEmpty)
    val metrics: Seq[(String, Metric)] =
      if (!opts.trace) {
        Seq(
          "setup_s" -> Metric(Stats.median(setupSecs.toSeq), "s"),
          "cold_wall_s" -> Metric(cold.map(_.seconds).getOrElse(0.0), "s"),
          "tuple_f1" -> Metric(cold.map(_.tupleF1).getOrElse(0.0), "%"),
          "pair_f1" -> Metric(cold.map(_.pairF1).getOrElse(0.0), "%"),
          "peak_heap_gb" -> Metric(heap.peakBytes / 1e9, "GB"),
        )
      } else {
        val names = traces.headOption.map(_.metrics.map(_._1)).getOrElse(Nil)
        val layer = names.map { n =>
          val ms = traces.toSeq.map(_.metrics.find(_._1 == n).get._2)
          n -> Metric(Stats.median(ms.map(_.value)), ms.head.unit)
        }
        val traced = medianOr0(traces.toSeq.map(_.pipelineSeconds))
        Seq("data.generate_s" -> Metric(Stats.median(genSecs.toSeq), "s")) ++ layer ++ Seq(
          "trace.overhead_s" -> Metric(traced - cold.map(_.seconds).getOrElse(0.0), "s"),
          "trace.tuple_agreement" -> Metric(medianOr0(traces.toSeq.map(_.agreement).filterNot(_.isNaN)), "ratio"),
        )
      }

    val (q1, q2, q3) = if (walls.nonEmpty) Stats.quartiles(walls) else (0.0, 0.0, 0.0)
    val summary = Map(
      "correct" -> correct,
      "attempted" -> attempted,
      "failed" -> failures.size,
      "metrics" -> mutable.LinkedHashMap(metrics.map { case (n, m) => n -> Map("value" -> m.value, "unit" -> m.unit) }: _*),
    )
    val record = Map(
      "workload" -> w.name,
      "seed" -> opts.seed,
      "data_seed" -> dataSeed,
      "scale" -> scale,
      "entities" -> in.entities,
      "trace" -> opts.trace,
      "config" -> sparkConfig(in.spark),
      "hyperparameters" -> Map("m" -> tuned.m, "eps" -> tuned.eps, "gamma" -> tuned.gamma, "k" -> 1, "min_pts" -> 2,
        "r" -> sampleRatio, "ann_exact" -> cfg.merge.ann.exact),
      "setup_s_samples" -> setupSecs.toSeq,
      "cold_wall_s" -> cold.map(_.seconds).getOrElse(0.0),
      "cold_cpu_s" -> cold.map(_.cpuSeconds).getOrElse(0.0),
      "warm_wall_s" -> Map("median" -> q2, "q1" -> q1, "q3" -> q3, "n" -> walls.size, "samples" -> walls),
      "failures" -> failures.toSeq,
      "spans" -> traces.flatMap(_.spans).toSeq,
      "summary" -> summary,
    )
    Console.err.println(f"[perfbench] ${w.name} seed=${opts.seed} entities=${in.entities} " +
      f"cold_wall_s=${cold.map(_.seconds).getOrElse(0.0)}%.3f warm median=$q2%.3f q1=$q1%.3f q3=$q3%.3f n=${walls.size} failures=${failures.size}")
    failures.foreach(f => Console.err.println(s"[perfbench] FAILED $f"))
    (summary, record)
  }

  private def medianOr0(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else Stats.median(xs)
}

/** Highest heap occupancy the JVM reports right after a garbage collection,
  * while started. Each GC notification carries the heap pools' usage after
  * that collection, so garbage awaiting collection is not counted.
  */
final class HeapWatch {
  import javax.management.{Notification, NotificationEmitter, NotificationListener}
  import javax.management.openmbean.CompositeData
  import com.sun.management.GarbageCollectionNotificationInfo
  import scala.jdk.CollectionConverters._

  @volatile private var on = false
  @volatile private var peak = 0L
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == java.lang.management.MemoryType.HEAP).map(_.getName).toSet

  private val listener = new NotificationListener {
    override def handleNotification(n: Notification, handback: Any): Unit =
      if (on && n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
          .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
        synchronized { if (used > peak) peak = used }
      }
  }
  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
    case _                      =>
  }

  def start(): Unit = on = true
  def stop(): Unit = on = false
  def peakBytes: Long = peak
}
