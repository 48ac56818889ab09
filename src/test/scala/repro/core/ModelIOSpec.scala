package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ModelIOSpec extends AnyFunSuite {

  private def tmp(): String =
    java.nio.file.Files.createTempFile("model", ".txt").toString

  test("SAGE model round-trips exactly") {
    val m = Models.sage(Seq(5, 4, 3), seed = 11)
    val path = tmp()
    ModelIO.save(m, path)
    val m2 = ModelIO.load(path)
    assert(m2.signatures == m.signatures)
    val g = TinyGraphs.random(12, 40, 5, 1)
    assert(LocalInference.forward(g, m).maxAbsDiff(LocalInference.forward(g, m2)) == 0.0)
  }

  test("GAT model round-trips exactly") {
    val m = Models.gat(Seq(5, 4, 3), heads = 2, seed = 12)
    val path = tmp()
    ModelIO.save(m, path)
    val m2 = ModelIO.load(path)
    assert(m2.signatures == m.signatures)
    val g = TinyGraphs.random(12, 40, 5, 2)
    assert(LocalInference.forward(g, m).maxAbsDiff(LocalInference.forward(g, m2)) == 0.0)
  }

  test("multiLabel flag survives the round trip") {
    val m = GnnModel(Models.sage(Seq(3, 2)).layers, multiLabel = true)
    val path = tmp()
    ModelIO.save(m, path)
    assert(ModelIO.load(path).multiLabel)
  }

  test("signature records the paper's partial-gather annotation per layer") {
    val m = GnnModel(Models.sage(Seq(4, 4)).layers ++
      Models.gat(Seq(4, 3)).layers)
    val sigs = m.signatures
    assert(sigs.map(_.partialGather) == Seq(true, true))
    val path = tmp()
    ModelIO.save(m, path)
    assert(ModelIO.load(path).signatures == sigs)
  }

  test("layer headers carry the signature's annotations") {
    val m = GnnModel(Models.sage(Seq(4, 4)).layers ++ Models.gat(Seq(4, 3)).layers)
    val path = tmp()
    ModelIO.save(m, path)
    val headers = scala.io.Source.fromFile(path).getLines().filter(_.startsWith("layer ")).toList
    assert(headers.size == 2)
    assert(headers.head.contains(" partial=true readsDst=false "))
    assert(headers.last.contains(" partial=true readsDst=true "))
  }

  test("a GAT file written with the old partial=false header still loads") {
    val m = Models.gat(Seq(5, 4, 3), heads = 2, seed = 13)
    val path = tmp()
    ModelIO.save(m, path)
    val p = java.nio.file.Paths.get(path)
    val old = new String(java.nio.file.Files.readAllBytes(p)).replace(" partial=true readsDst=true ", " partial=false ")
    assert(!old.contains("readsDst"))
    java.nio.file.Files.write(p, old.getBytes)
    val m2 = ModelIO.load(path)
    assert(m2.signatures == m.signatures)
    val g = TinyGraphs.random(12, 40, 5, 4)
    assert(LocalInference.forward(g, m).maxAbsDiff(LocalInference.forward(g, m2)) == 0.0)
  }

  test("mixed-stack model round-trips with same forward values") {
    val m = GnnModel(Models.sage(Seq(6, 4)).layers ++ Models.gat(Seq(4, 3), heads = 1).layers)
    val path = tmp()
    ModelIO.save(m, path)
    val g = TinyGraphs.random(10, 25, 6, 3)
    assert(LocalInference.forward(g, m).maxAbsDiff(LocalInference.forward(g, ModelIO.load(path))) == 0.0)
  }

  test("loading a corrupt file fails loudly") {
    val path = tmp()
    java.nio.file.Files.write(java.nio.file.Paths.get(path),
      "model multiLabel=false layers=1\nlayer kind=bogus\n".getBytes)
    intercept[Exception](ModelIO.load(path))
  }
}
